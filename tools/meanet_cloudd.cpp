// meanet_cloudd — the standalone cloud daemon of the wire offload path.
//
// Listens on a Unix-domain socket, speaks the MWIR framed protocol
// (src/wire/frame.h), and serves every connected edge session's offload
// requests through ONE shared WireServer batch queue, so concurrent
// sessions' uploads coalesce into cross-session cloud batches. The
// queue is work-conserving: a batch goes as soon as the batch worker is
// free, with whatever is pending (up to --max-batch instances), and
// never waits for more.
//
//   meanet_cloudd --socket /tmp/meanet.sock --seed 7
//       --image-channels 3 --classes 10 [--model weights.bin]
//       [--max-batch 32] [--stats-every-s 10]
//
// The cloud classifier is built deterministically from --seed (same
// architecture + seed on the edge side reproduces the exact weights,
// which is how the parity tests share a model across processes); pass
// --model to overwrite the random init with trained weights saved by
// nn::save_model. Each coalesced batch is split by rows over every
// core (sim::CloudNode's forward_threads); answers are byte-identical
// to a one-thread forward. Every numeric flag is parsed strictly: a
// malformed or out-of-range value prints usage and exits 2.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include <signal.h>

#include "core/builders.h"
#include "diag/registry.h"
#include "diag/ticker.h"
#include "nn/serialize.h"
#include "runtime/offload_backend.h"
#include "sim/clock.h"
#include "sim/cloud_node.h"
#include "util/rng.h"
#include "wire/server.h"

namespace {

std::atomic<bool> g_shutdown{false};

void handle_signal(int) { g_shutdown.store(true); }

struct Options {
  std::string socket_path;
  std::string model_path;
  std::uint64_t seed = 0x5eedULL;
  int image_channels = 3;
  int classes = 10;
  int max_batch = 32;
  double stats_every_s = 0.0;  // 0 = only on exit
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--seed N] [--image-channels N] [--classes N]\n"
               "          [--model WEIGHTS] [--max-batch N] [--stats-every-s X]\n",
               argv0);
  std::exit(2);
}

/// Whole-string strict parses: false on trailing junk, overflow or a
/// value outside the flag's range.
bool parse_u64(const char* text, std::uint64_t& out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;  // no sign, no space
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  out = value;
  return true;
}

bool parse_int(const char* text, int min, int& out) {
  constexpr auto kMax = static_cast<std::uint64_t>(std::numeric_limits<int>::max());
  std::uint64_t value = 0;
  if (!parse_u64(text, value) || value > kMax || static_cast<int>(value) < min) return false;
  out = static_cast<int>(value);
  return true;
}

bool parse_nonnegative(const char* text, double& out) {
  if (text[0] == '\0' || std::isspace(static_cast<unsigned char>(text[0]))) return false;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (*end != '\0' || errno == ERANGE || !std::isfinite(value) || value < 0.0) return false;
  out = value;
  return true;
}

Options parse_args(int argc, char** argv) {
  Options opts;
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool ok = true;
    if (arg == "--socket") {
      opts.socket_path = value(i);
    } else if (arg == "--model") {
      opts.model_path = value(i);
    } else if (arg == "--seed") {
      ok = parse_u64(value(i), opts.seed);
    } else if (arg == "--image-channels") {
      ok = parse_int(value(i), 1, opts.image_channels);
    } else if (arg == "--classes") {
      ok = parse_int(value(i), 2, opts.classes);
    } else if (arg == "--max-batch") {
      ok = parse_int(value(i), 1, opts.max_batch);
    } else if (arg == "--stats-every-s") {
      ok = parse_nonnegative(value(i), opts.stats_every_s);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      usage(argv[0]);
    }
    if (!ok) {
      std::fprintf(stderr, "invalid value for %s: %s\n", arg.c_str(), argv[i]);
      usage(argv[0]);
    }
  }
  if (opts.socket_path.empty()) usage(argv[0]);
  return opts;
}

/// One registry dump: every provider in the process (the wire server,
/// and the GEMM pool once a batch has run) as the versioned JSON
/// snapshot — the same document kStatsRequest serves.
void print_diagnostics() {
  std::printf("[meanet_cloudd] diagnostics %s\n",
              meanet::diag::DiagnosticRegistry::global().to_json().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace meanet;
  const Options opts = parse_args(argc, argv);

  struct sigaction action {};
  action.sa_handler = handle_signal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);

  util::Rng rng(opts.seed);
  const int threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  sim::CloudNode cloud(core::build_cloud_classifier(opts.image_channels, opts.classes, rng),
                       threads);
  if (!opts.model_path.empty()) {
    nn::load_model(cloud.model(), opts.model_path);
    std::printf("[meanet_cloudd] loaded weights from %s\n", opts.model_path.c_str());
  }

  wire::WireServerConfig config;
  config.max_batch_instances = opts.max_batch;
  wire::WireServer server(std::make_shared<runtime::RawImageBackend>(&cloud), config);
  server.listen_unix(opts.socket_path);
  std::printf("[meanet_cloudd] serving on %s (seed=%llu channels=%d classes=%d "
              "max_batch=%d threads=%d)\n",
              opts.socket_path.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.image_channels, opts.classes, opts.max_batch, cloud.forward_threads());
  std::fflush(stdout);

  // The periodic stats dump ticks on the sim::Clock seam: under the
  // daemon's WallClock this is byte-identical to the old 50 ms polling
  // loop, and a daemon engine embedded in a virtual-time test can run
  // the same Ticker on a VirtualClock without blocking time advance.
  const std::shared_ptr<sim::Clock> clock = sim::wall_clock_ptr();
  std::unique_ptr<diag::Ticker> ticker;
  if (opts.stats_every_s > 0.0) {
    ticker = std::make_unique<diag::Ticker>(clock, opts.stats_every_s, print_diagnostics);
  }
  while (!g_shutdown.load()) clock->sleep_for(0.05);
  ticker.reset();
  server.stop();
  print_diagnostics();
  return 0;
}
