#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "runtime/metrics.h"
#include "util/rng.h"

namespace e2e {

double now_s() {
  static const SteadyClock::time_point epoch = SteadyClock::now();
  return std::chrono::duration<double>(SteadyClock::now() - epoch).count();
}

void sleep_until_s(double t) {
  const double wait = t - now_s();
  if (wait > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

double percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return meanet::runtime::sorted_percentile(samples, p);
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5); }

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s, double duration_s) {
  if (rate_per_s <= 0.0) throw std::invalid_argument("poisson_schedule: rate must be positive");
  meanet::util::Rng rng(seed);
  std::vector<double> due;
  double t = 0.0;
  while (true) {
    // 53 random bits -> u in [0, 1); 1 - u is in (0, 1], so the log is
    // finite. Reading the engine directly (not a <random> distribution)
    // keeps the schedule identical across standard libraries.
    const double u = static_cast<double>(rng.engine()() >> 11) * 0x1.0p-53;
    t += -std::log(1.0 - u) / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

std::int64_t SpanRecorder::record(std::string name, double start_s, double end_s,
                                  std::int64_t request, std::int64_t parent) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = static_cast<std::int64_t>(spans_.size());
  span.parent = parent;
  span.request = request;
  span.name = std::move(name);
  span.start_s = start_s;
  span.end_s = end_s;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

double self_time(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<double, double>> intervals;
  for (const Span& child : children) {
    const double lo = std::max(child.start_s, parent.start_s);
    const double hi = std::min(child.end_s, parent.end_s);
    if (hi > lo) intervals.emplace_back(lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double run_lo = 0.0, run_hi = 0.0;
  bool open = false;
  for (const auto& [lo, hi] : intervals) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) covered += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) covered += run_hi - run_lo;
  return std::max(0.0, parent.duration_s() - covered);
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::map<std::int64_t, std::size_t> position;
  for (std::size_t i = 0; i < spans.size(); ++i) position[spans[i].id] = i;
  std::vector<std::vector<Span>> children(spans.size());
  for (const Span& span : spans) {
    const auto it = position.find(span.parent);
    if (it != position.end()) children[it->second].push_back(span);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) out[i] = self_time(spans[i], children[i]);
  return out;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

void Report::add(const std::string& name, double value, const std::string& unit) {
  if (!valid_metric_name(name)) throw std::invalid_argument("bad metric name: " + name);
  if (has(name)) throw std::invalid_argument("duplicate metric: " + name);
  if (!std::isfinite(value)) throw std::invalid_argument("non-finite metric: " + name);
  metrics_.push_back(Metric{name, value, unit});
}

bool Report::has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

double Report::value(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  throw std::out_of_range("no metric: " + name);
}

std::string format_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char escape[8];
          std::snprintf(escape, sizeof(escape), "\\u%04x", c);
          out += escape;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string Report::to_json(bool correct, std::int64_t attempted, std::int64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + format_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}}";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

int online_cpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace e2e
