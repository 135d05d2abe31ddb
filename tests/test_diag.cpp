// Tests for the unified diagnostics surface (src/diag/): the Value
// tree + JSON exporter, the process-wide registry under concurrent
// register/unregister churn, the exact nearest-rank percentile fix,
// the SessionMetrics export contract (every documented counter appears
// in the tree), live-session snapshots mid-churn, and the clock-driven
// Ticker under both wall and virtual time.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "diag/registry.h"
#include "diag/ticker.h"
#include "diag/value.h"
#include "runtime/session.h"
#include "sim/event_loop.h"
#include "tiny_models.h"

namespace meanet::diag {
namespace {

using meanet::testing::tiny_data_spec;
using meanet::testing::tiny_meanet_b;

// ---------------------------------------------------------------------------
// Nearest-rank percentiles: the table every quantile consumer relies on.

TEST(Percentile, ExactNearestRankTable) {
  struct Case {
    std::vector<double> sorted;
    double p;
    double expected;
  };
  std::vector<double> twenty, hundred;
  for (int i = 1; i <= 20; ++i) twenty.push_back(i);
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const Case cases[] = {
      // Singleton: every p reads the one sample.
      {{42.0}, 0.0, 42.0},
      {{42.0}, 0.5, 42.0},
      {{42.0}, 1.0, 42.0},
      // Two samples: p50 is the FIRST (rank ceil(0.5*2) = 1), not an
      // interpolation between the two.
      {{1.0, 9.0}, 0.5, 1.0},
      {{1.0, 9.0}, 0.75, 9.0},
      {{1.0, 9.0}, 1.0, 9.0},
      // Four samples: p50 -> rank 2.
      {{1.0, 2.0, 3.0, 4.0}, 0.5, 2.0},
      {{1.0, 2.0, 3.0, 4.0}, 0.25, 1.0},
      // p95 of 20: 0.95 * 20 is 19.000000000000004 in IEEE doubles; a
      // bare ceil() read rank 20 (the max). Exact nearest-rank is 19.
      {twenty, 0.95, 19.0},
      {twenty, 0.50, 10.0},
      // p99 of 100 must be the 99th sample, not the max.
      {hundred, 0.99, 99.0},
      {hundred, 0.95, 95.0},
      {hundred, 1.0, 100.0},
      // Out-of-range p clamps.
      {{1.0, 2.0, 3.0}, -0.5, 1.0},
      {{1.0, 2.0, 3.0}, 2.0, 3.0},
  };
  for (const Case& c : cases) {
    EXPECT_DOUBLE_EQ(runtime::sorted_percentile(c.sorted, c.p), c.expected)
        << "n=" << c.sorted.size() << " p=" << c.p;
  }
}

TEST(Percentile, EmptySetReturnsZero) {
  EXPECT_DOUBLE_EQ(runtime::sorted_percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(runtime::percentile({}, 0.99), 0.0);
}

TEST(Percentile, UnsortedConvenienceSorts) {
  EXPECT_DOUBLE_EQ(runtime::percentile({9.0, 1.0, 5.0}, 0.5), 5.0);
}

// ---------------------------------------------------------------------------
// Value tree + JSON exporter.

TEST(Value, GoldenJson) {
  Value doc = Value::object();
  doc.set("schema", kSchemaVersion);
  doc.set("count", std::int64_t{3});
  Value inner = Value::object();
  inner.set("ok", true);
  inner.set("ratio", 0.5);
  doc.set("inner", std::move(inner));
  Value arr = Value::array();
  arr.push(1);
  arr.push("two");
  doc.set("items", std::move(arr));
  const std::string expected =
      "{\n"
      "  \"schema\": \"meanet.diag.v2\",\n"
      "  \"count\": 3,\n"
      "  \"inner\": {\n"
      "    \"ok\": true,\n"
      "    \"ratio\": 0.5\n"
      "  },\n"
      "  \"items\": [\n"
      "    1,\n"
      "    \"two\"\n"
      "  ]\n"
      "}";
  EXPECT_EQ(to_json(doc), expected);
  EXPECT_EQ(to_json(doc, 0),
            "{\"schema\":\"meanet.diag.v2\",\"count\":3,"
            "\"inner\":{\"ok\":true,\"ratio\":0.5},\"items\":[1,\"two\"]}");
}

TEST(Value, SetOverwritesInPlaceAndKeepsOrder) {
  Value v;  // null: first set() promotes to object
  v.set("a", 1).set("b", 2).set("c", 3);
  v.set("b", 20);  // overwrite keeps position
  ASSERT_EQ(v.fields().size(), 3u);
  EXPECT_EQ(v.fields()[1].first, "b");
  EXPECT_EQ(v.fields()[1].second.as_int(), 20);
  ASSERT_NE(v.find("c"), nullptr);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Value, NonFiniteDoublesRenderAsNull) {
  Value v = Value::object();
  v.set("inf", std::numeric_limits<double>::infinity());
  v.set("nan", std::nan(""));
  EXPECT_EQ(to_json(v, 0), "{\"inf\":null,\"nan\":null}");
}

TEST(Value, StringEscaping) {
  Value v = Value::object();
  v.set("s", std::string("a\"b\\c\n\t\x01"));
  EXPECT_EQ(to_json(v, 0), "{\"s\":\"a\\\"b\\\\c\\n\\t\\u0001\"}");
}

TEST(Value, EmptyContainersRenderCompact) {
  Value v = Value::object();
  v.set("o", Value::object());
  v.set("a", Value::array());
  EXPECT_EQ(to_json(v, 0), "{\"o\":{},\"a\":[]}");
}

TEST(Json, WellFormedAcceptsValidDocuments) {
  EXPECT_TRUE(json_well_formed("{}"));
  EXPECT_TRUE(json_well_formed("  [1, 2.5e3, -0.25, \"x\", null, true, false]  "));
  EXPECT_TRUE(json_well_formed("{\"a\": {\"b\": [\"\\u00e9\", \"\\n\"]}}"));
  Value v = Value::object();
  v.set("neg", -1);
  v.set("big", std::uint64_t{18446744073709551615ull});
  EXPECT_TRUE(json_well_formed(to_json(v)));
}

TEST(Json, WellFormedRejectsMalformedDocuments) {
  EXPECT_FALSE(json_well_formed(""));
  EXPECT_FALSE(json_well_formed("{"));
  EXPECT_FALSE(json_well_formed("{} trailing"));
  EXPECT_FALSE(json_well_formed("{\"a\": 01}"));
  EXPECT_FALSE(json_well_formed("{\"a\": .5}"));
  EXPECT_FALSE(json_well_formed("{\"a\"; 1}"));
  EXPECT_FALSE(json_well_formed("{\"a\": \"\\x\"}"));
  EXPECT_FALSE(json_well_formed("[1, 2,]"));
  EXPECT_FALSE(json_well_formed("nul"));
  std::string deep;
  for (int i = 0; i < 80; ++i) deep += '[';
  for (int i = 0; i < 80; ++i) deep += ']';
  EXPECT_FALSE(json_well_formed(deep)) << "depth cap must reject 80 levels";
}

// ---------------------------------------------------------------------------
// Registry semantics.

class FakeProvider : public DiagnosticProvider {
 public:
  explicit FakeProvider(std::string name, std::int64_t payload = 0)
      : name_(std::move(name)), payload_(payload) {}
  std::string diag_name() const override { return name_; }
  Value diag_snapshot() const override {
    Value v = Value::object();
    v.set("payload", payload_);
    return v;
  }

 private:
  std::string name_;
  std::int64_t payload_;
};

TEST(Registry, SnapshotEnvelopeAndOrder) {
  DiagnosticRegistry registry;
  FakeProvider a("alpha", 1), b("beta", 2);
  ScopedRegistration ra(registry, &a);
  ScopedRegistration rb(registry, &b);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"alpha", "beta"}));

  const Value snap = registry.snapshot();
  ASSERT_NE(snap.find("schema"), nullptr);
  EXPECT_EQ(snap.find("schema")->as_string(), kSchemaVersion);
  const Value* providers = snap.find("providers");
  ASSERT_NE(providers, nullptr);
  ASSERT_EQ(providers->fields().size(), 2u);
  EXPECT_EQ(providers->fields()[0].first, "alpha");
  EXPECT_EQ(providers->fields()[1].first, "beta");
  EXPECT_EQ(providers->find("alpha")->find("payload")->as_int(), 1);

  EXPECT_TRUE(json_well_formed(registry.to_json()));
}

TEST(Registry, DuplicateNamesGetSuffixes) {
  DiagnosticRegistry registry;
  FakeProvider a("dup", 1), b("dup", 2), c("dup", 3);
  ScopedRegistration ra(registry, &a), rb(registry, &b), rc(registry, &c);
  const Value snap = registry.snapshot();
  const Value* providers = snap.find("providers");
  ASSERT_NE(providers, nullptr);
  ASSERT_EQ(providers->fields().size(), 3u);
  EXPECT_EQ(providers->fields()[0].first, "dup");
  EXPECT_EQ(providers->fields()[1].first, "dup#2");
  EXPECT_EQ(providers->fields()[2].first, "dup#3");
}

TEST(Registry, SnapshotOfMissingIsNull) {
  DiagnosticRegistry registry;
  FakeProvider a("here", 7);
  ScopedRegistration ra(registry, &a);
  EXPECT_EQ(registry.snapshot_of("here").find("payload")->as_int(), 7);
  EXPECT_TRUE(registry.snapshot_of("absent").is_null());
}

TEST(Registry, AddRemoveAreIdempotent) {
  DiagnosticRegistry registry;
  FakeProvider a("x");
  registry.add(&a);
  registry.add(&a);  // no-op
  EXPECT_EQ(registry.size(), 1u);
  registry.remove(&a);
  registry.remove(&a);  // no-op
  EXPECT_EQ(registry.size(), 0u);
}

TEST(Registry, ScopedRegistrationMoveAndReset) {
  DiagnosticRegistry registry;
  FakeProvider a("mv");
  ScopedRegistration outer;
  EXPECT_FALSE(outer.armed());
  {
    ScopedRegistration inner(registry, &a);
    EXPECT_TRUE(inner.armed());
    outer = std::move(inner);
    EXPECT_FALSE(inner.armed());
  }  // inner's destructor must not unregister (ownership moved out)
  EXPECT_EQ(registry.size(), 1u);
  outer.reset();
  EXPECT_FALSE(outer.armed());
  EXPECT_EQ(registry.size(), 0u);
}

// Four writer threads churn registrations while a reader snapshots the
// whole registry: every dump must be a well-formed document and every
// named payload consistent — TSAN's bread and butter.
TEST(Registry, ConcurrentChurnAndSnapshot) {
  DiagnosticRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kIterations = 300;
  std::atomic<bool> stop{false};
  std::atomic<int> bad_documents{0};

  std::thread reader([&] {
    while (!stop.load()) {
      const std::string dump = registry.to_json();
      if (!json_well_formed(dump)) bad_documents.fetch_add(1);
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&registry, t] {
      for (int i = 0; i < kIterations; ++i) {
        FakeProvider p("churn/" + std::to_string(t), i);
        ScopedRegistration reg(registry, &p);
        // Read back through the registry while registered.
        const Value mine = registry.snapshot_of("churn/" + std::to_string(t));
        if (!mine.is_null()) {
          // Another same-named provider may have won the first-match
          // lookup; any payload visible there must be a live one.
          EXPECT_NE(mine.find("payload"), nullptr);
        }
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(bad_documents.load(), 0);
  EXPECT_EQ(registry.size(), 0u);
}

// ---------------------------------------------------------------------------
// SessionMetrics export contract + live-session snapshots.

struct TinySession {
  data::SyntheticDataset ds;
  core::MEANet net;
  data::ClassDict dict;

  static TinySession make() {
    util::Rng rng(5);
    data::SyntheticDataset ds = data::make_synthetic(tiny_data_spec(), 33);
    core::MEANet net = tiny_meanet_b(rng, 2);  // untrained: routing quality
                                               // is irrelevant here
    data::ClassDict dict(tiny_data_spec().num_classes, {0, 1});
    return TinySession{std::move(ds), std::move(net), std::move(dict)};
  }

  runtime::EngineConfig config() {
    runtime::EngineConfig cfg;
    cfg.net = &net;
    cfg.dict = &dict;
    cfg.worker_threads = 2;
    return cfg;
  }
};

TEST(SessionExport, EveryDocumentedCounterAppears) {
  TinySession tiny = TinySession::make();
  runtime::InferenceSession session(tiny.config());
  for (int i = 0; i < 8; ++i) session.submit(tiny.ds.test.instance(i));
  (void)session.drain();

  const runtime::SessionMetrics m = session.metrics();
  const Value tree = m.to_value();
  ASSERT_FALSE(runtime::SessionMetrics::counter_names().empty());
  for (const char* name : runtime::SessionMetrics::counter_names()) {
    EXPECT_NE(tree.find(name), nullptr) << "counter missing from export: " << name;
  }
  ASSERT_NE(tree.find("routes"), nullptr);
  ASSERT_NE(tree.find("queue_wait_by_priority"), nullptr);
  EXPECT_EQ(tree.find("submitted_instances")->as_int(), 8);
  EXPECT_TRUE(json_well_formed(to_json(tree)));
}

TEST(SessionExport, SessionRegistersWithGlobalRegistry) {
  TinySession tiny = TinySession::make();
  const std::size_t before = DiagnosticRegistry::global().size();
  {
    runtime::InferenceSession session(tiny.config());
    const std::vector<std::string> names = DiagnosticRegistry::global().names();
    EXPECT_EQ(DiagnosticRegistry::global().size(), before + 1);
    bool found_session = false;
    for (const std::string& n : names) {
      if (n.rfind("session/", 0) == 0) found_session = true;
    }
    EXPECT_TRUE(found_session);

    const Value snap = DiagnosticRegistry::global().snapshot_of(session.diag_name());
    ASSERT_FALSE(snap.is_null());
    ASSERT_NE(snap.find("metrics"), nullptr);
    EXPECT_NE(snap.find("metrics")->find("submitted_instances"), nullptr);
    EXPECT_EQ(snap.find("workers")->as_int(), session.worker_count());
  }
  // Destruction unregisters the session.
  EXPECT_EQ(DiagnosticRegistry::global().size(), before);
}

// A poller dumps the global registry while the session serves traffic
// and is finally torn down — the snapshot path must never observe a
// partially-destroyed provider (the ScopedRegistration teardown
// ordering under test).
TEST(SessionExport, SnapshotMidChurnStaysWellFormed) {
  TinySession tiny = TinySession::make();
  std::atomic<bool> stop{false};
  std::atomic<int> bad_documents{0};
  std::thread poller([&] {
    while (!stop.load()) {
      if (!json_well_formed(DiagnosticRegistry::global().to_json())) {
        bad_documents.fetch_add(1);
      }
    }
  });
  for (int round = 0; round < 3; ++round) {
    runtime::InferenceSession session(tiny.config());
    for (int i = 0; i < 24; ++i) {
      session.submit(tiny.ds.test.instance(i % tiny.ds.test.size()));
    }
    (void)session.drain();
  }  // session destruction races the poller's snapshots
  stop.store(true);
  poller.join();
  EXPECT_EQ(bad_documents.load(), 0);
}

// ---------------------------------------------------------------------------
// Ticker.

TEST(Ticker, RejectsBadArguments) {
  EXPECT_THROW(Ticker(nullptr, 0.0, [] {}), std::invalid_argument);
  EXPECT_THROW(Ticker(nullptr, -1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(Ticker(nullptr, 1.0, nullptr), std::invalid_argument);
}

TEST(Ticker, FiresOnWallClockAndStopsIdempotently) {
  std::atomic<int> fired{0};
  Ticker ticker(nullptr, 0.002, [&] { fired.fetch_add(1); });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fired.load() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(fired.load(), 3);
  ticker.stop();
  const int after_stop = fired.load();
  ticker.stop();  // idempotent
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(fired.load(), after_stop) << "no ticks may fire after stop()";
  EXPECT_EQ(ticker.ticks(), static_cast<std::uint64_t>(after_stop));
}

// Under a VirtualClock the tick instants are exactly t0 + k*period —
// the fixed-rate schedule is a deterministic event sequence, not a
// measured sleep.
TEST(Ticker, VirtualClockTicksAreExactlyPeriodic) {
  auto clock = std::make_shared<sim::VirtualClock>();
  std::mutex mutex;
  std::vector<sim::Clock::TimePoint> instants;
  std::condition_variable cv;
  {
    Ticker ticker(clock, 0.5, [&] {
      std::lock_guard<std::mutex> lock(mutex);
      instants.push_back(clock->now());
      cv.notify_all();
    });
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return instants.size() >= 5; });
    ASSERT_GE(instants.size(), 5u);
  }
  const auto period = instants[1] - instants[0];
  EXPECT_DOUBLE_EQ(sim::Clock::seconds_between(instants[0], instants[1]), 0.5);
  for (std::size_t k = 2; k < 5; ++k) {
    EXPECT_EQ(instants[k] - instants[k - 1], period) << "tick " << k << " drifted";
  }
}

}  // namespace
}  // namespace meanet::diag
