// e2ebench — end-to-end benchmark program of the MEANet edge/cloud stack.
//
//   e2ebench prepare --out DIR [--prep-seed N]
//   e2ebench run --workload NAME --seed N --seconds S --trace 0|1
//                --prep DIR --prep-seed N --cloudd PATH --run-dir DIR
//
// `prepare` trains every served model with the library under test. `run`
// measures one workload: untraced (--trace 0) it prints the end-to-end
// metrics; traced (--trace 1) it runs every workload briefly with its seams
// wrapped, replays the layer calls, and prints the per-layer metrics plus
// harness.trace_overhead for the named workload. The last stdout line is
// the JSON result; the exit code is 1 when an output check failed.
// e2ebench/run.py builds this program and supplies the paths.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "harness.h"
#include "layers.h"
#include "models.h"
#include "sim/cloud_node.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/simd.h"
#include "workloads.h"

extern char** environ;

namespace {

using namespace e2e;
using namespace meanet;

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: e2ebench prepare --out DIR [--prep-seed N]\n"
               "       e2ebench run --workload NAME --seed N --seconds S --trace 0|1\n"
               "                    --prep DIR --prep-seed N --cloudd PATH --run-dir DIR\n");
  std::exit(2);
}

std::map<std::string, std::string> parse_flags(int argc, char** argv, int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) usage();
    flags[argv[i] + 2] = argv[i + 1];
  }
  return flags;
}

std::string required(const std::map<std::string, std::string>& flags, const char* name) {
  const auto it = flags.find(name);
  if (it == flags.end()) {
    std::fprintf(stderr, "e2ebench: missing --%s\n", name);
    usage();
  }
  return it->second;
}

std::uint64_t parse_u64(const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') usage();
  return v;
}

/// Inherited MEANET_* variables would change the kernels under test
/// before main() runs (the library reads them at static initialisation),
/// so the program refuses to run with any set.
bool refuse_kernel_env() {
  bool found = false;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MEANET_", 7) == 0) {
      std::fprintf(stderr, "e2ebench: refusing to run with %s set\n", *e);
      found = true;
    }
  }
  return found;
}

void print_header(const std::string& workload, bool trace, const Outcome& out) {
  const ops::GemmPool::Stats pool = ops::GemmPool::instance().stats();
  std::printf("# host {\"nproc\": %d, \"cpu\": %s, \"simd\": \"%s\", \"int8\": \"%s\", "
              "\"build\": \"%s\", \"gemm_threads\": %d, \"pool.workers\": %d}\n",
              online_cpus(), json_string(cpu_model()).c_str(),
              ops::simd_level_name(ops::simd_level()), ops::int8_kernel_name(ops::int8_kernel()),
              E2E_BUILD_TYPE, ops::gemm_threads(), pool.workers);
  std::printf("# workload {\"name\": \"%s\", \"trace\": %d, \"session_workers\": %d, "
              "\"client_threads\": %d, \"gemm_width\": %d}\n",
              workload.c_str(), trace ? 1 : 0, out.session_workers, out.client_threads,
              ops::gemm_threads());
}

void print_lines(const Outcome& out) {
  for (const std::string& line : out.lines) std::printf("%s\n", line.c_str());
  for (const std::string& error : out.errors) std::printf("CHECK FAILED: %s\n", error.c_str());
}

void print_metrics(const std::string& workload, const Report& report) {
  for (const Metric& m : report.metrics()) {
    std::printf("%s %s = %s %s\n", workload.c_str(), m.name.c_str(),
                format_number(m.value).c_str(), m.unit.c_str());
  }
}

/// The nn layer tables of the two serving configurations the per-layer
/// rows explain: camera_stream's (ResNet-B, int8, batch 1) and
/// bulk_mobilenet's (MobileNetV2-B, float, batch 32).
void report_nn_tables(Report& layers, const Context& ctx, std::uint64_t seed) {
  {
    EdgeModel edge = load_edge(ctx.prep_dir, Family::kResNetCifar);
    nn::Sequential cloud = load_cloud(ctx.prep_dir);
    const data::Dataset inputs =
        sample_inputs(held_out_pool(Family::kResNetCifar, ctx.prep_seed, 10), 1, seed);
    report_nn_table(layers, "camera", *edge.net, &cloud, inputs.images, 1, true);
  }
  {
    EdgeModel edge = load_edge(ctx.prep_dir, Family::kMobileNetImage);
    const data::Dataset inputs =
        sample_inputs(held_out_pool(Family::kMobileNetImage, ctx.prep_seed, 10), 32, seed);
    report_nn_table(layers, "bulk", *edge.net, nullptr, inputs.images, 32, false);
  }
}

int run(const std::map<std::string, std::string>& flags) {
  const std::string workload = required(flags, "workload");
  bool known = false;
  for (const std::string& name : workload_names()) known = known || name == workload;
  if (!known) {
    std::fprintf(stderr, "e2ebench: unknown workload %s\n", workload.c_str());
    return 2;
  }
  Context ctx;
  ctx.prep_dir = required(flags, "prep");
  ctx.prep_seed = parse_u64(required(flags, "prep-seed"));
  ctx.cloudd = required(flags, "cloudd");
  ctx.run_dir = required(flags, "run-dir");
  WorkloadParams params;
  params.seed = parse_u64(required(flags, "seed"));
  params.seconds = std::atof(required(flags, "seconds").c_str());
  const std::string trace = required(flags, "trace");
  if (params.seconds <= 0.0 || (trace != "0" && trace != "1")) usage();

  if (trace == "0") {
    const Outcome out = run_workload(workload, ctx, params, nullptr);
    print_lines(out);
    print_metrics(workload, out.metrics);
    print_header(workload, false, out);
    std::printf("%s\n", out.metrics.to_json(out.errors.empty(), out.attempted(), out.failed())
                            .c_str());
    return out.errors.empty() ? 0 : 1;
  }

  // Traced run: the named workload untraced and then traced over the same
  // window gives harness.trace_overhead; every other workload runs traced
  // too, so each per-layer metric comes from the workload it belongs to.
  WorkloadParams brief = params;
  brief.seconds = std::max(3.0, params.seconds * 0.4);
  brief.brief = true;
  const Outcome untraced = run_workload(workload, ctx, brief, nullptr);
  Report layers;
  std::vector<Outcome> outcomes;
  double traced_headline = 0.0;
  for (const std::string& name : workload_names()) {
    Tracer tracer;
    outcomes.push_back(run_workload(name, ctx, brief, &tracer));
    for (const Metric& m : tracer.layers.metrics()) layers.add(m.name, m.value, m.unit);
    if (name == workload) traced_headline = outcomes.back().metrics.value(untraced.headline);
    std::printf("# traced %s: %zu spans\n", name.c_str(), tracer.spans.size());
  }
  report_nn_tables(layers, ctx, params.seed);
  const double base = untraced.metrics.value(untraced.headline);
  layers.add("harness.trace_overhead", base > 0.0 ? traced_headline / base : 0.0, "ratio");

  bool correct = untraced.errors.empty();
  std::int64_t attempted = untraced.attempted(), failed = untraced.failed();
  print_lines(untraced);
  for (const Outcome& out : outcomes) {
    print_lines(out);
    correct = correct && out.errors.empty();
    attempted += out.attempted();
    failed += out.failed();
  }
  print_metrics(workload, layers);
  print_header(workload, true, untraced);
  std::printf("%s\n", layers.to_json(correct, attempted, failed).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  if (refuse_kernel_env()) return 2;
  const std::string command = argv[1];
  const std::map<std::string, std::string> flags = parse_flags(argc, argv, 2);
  try {
    if (command == "prepare") {
      const auto seed = flags.find("prep-seed");
      prepare_models(required(flags, "out"), seed == flags.end() ? 1 : parse_u64(seed->second));
      return 0;
    }
    if (command == "run") return run(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 3;
  }
  usage();
}
