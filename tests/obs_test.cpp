// Tests for the telemetry subsystem: metrics registry, causal span
// tracing, exporters, the span-fed issue miner, and the end-to-end causal
// chain the ISSUE demands — a radio-layer fault visible as a parented span
// chain (env -> net -> disco -> app) plus metric deltas in a snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "diag/faults.hpp"
#include "disco/jini.hpp"
#include "env/environment.hpp"
#include "lpc/miner.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/hdr.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "obs/watchdog.hpp"
#include "phys/device.hpp"
#include "sim/world.hpp"
#include "snap/format.hpp"
#include "snap/replay.hpp"

namespace aroma::obs {
namespace {

// --- MetricsRegistry -----------------------------------------------------

TEST(MetricsRegistry, GetOrCreateReturnsStableHandles) {
  MetricsRegistry m;
  Counter& c = m.counter("net.stack.delivered", lpc::Layer::kResource);
  c.add(3);
  // Same name resolves to the same metric; no duplicate registration.
  EXPECT_EQ(&m.counter("net.stack.delivered", lpc::Layer::kResource), &c);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(c.value(), 3u);

  Gauge& g = m.gauge("phys.mac.queue_depth_peak", lpc::Layer::kPhysical);
  g.set(7.0);
  sim::Histogram& h =
      m.histogram("rfb.server.update_bytes", lpc::Layer::kAbstract, 0.0,
                  1024.0, 8);
  h.add(100.0);
  EXPECT_EQ(m.size(), 3u);

  ASSERT_NE(m.find_counter("net.stack.delivered"), nullptr);
  EXPECT_EQ(m.find_counter("net.stack.delivered")->value(), 3u);
  EXPECT_EQ(m.find_counter("never.registered"), nullptr);
  EXPECT_EQ(m.find_gauge("net.stack.delivered"), nullptr);  // kind mismatch
  ASSERT_NE(m.find_histogram("rfb.server.update_bytes"), nullptr);
}

TEST(MetricsRegistry, SetCounterIsMonotonic) {
  MetricsRegistry m;
  m.set_counter("env.radio.transmissions", lpc::Layer::kEnvironment, 10);
  EXPECT_EQ(m.find_counter("env.radio.transmissions")->value(), 10u);
  // A lower publication (e.g. a fresh world reusing the registry) must not
  // rewind the counter.
  m.set_counter("env.radio.transmissions", lpc::Layer::kEnvironment, 4);
  EXPECT_EQ(m.find_counter("env.radio.transmissions")->value(), 10u);
  m.set_counter("env.radio.transmissions", lpc::Layer::kEnvironment, 12);
  EXPECT_EQ(m.find_counter("env.radio.transmissions")->value(), 12u);
}

TEST(MetricsRegistry, JsonSnapshotCarriesLayerKindValue) {
  MetricsRegistry m;
  m.counter("disco.lease.grants", lpc::Layer::kAbstract).add(5);
  m.gauge("sim.kernel.pending", lpc::Layer::kResource).set(2.0);
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"disco.lease.grants\""), std::string::npos);
  EXPECT_NE(json.find("\"abstract\""), std::string::npos);
  EXPECT_NE(json.find("\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("5"), std::string::npos);
}

TEST(MetricsHelpers, NullSafeWhenNoRegistryAttached) {
  sim::World w(1);
  EXPECT_EQ(counter(w, "a.b.c", lpc::Layer::kEnvironment), nullptr);
  EXPECT_EQ(gauge(w, "a.b.g", lpc::Layer::kEnvironment), nullptr);
  EXPECT_EQ(histogram(w, "a.b.h", lpc::Layer::kEnvironment, 0, 1, 2),
            nullptr);
  EXPECT_EQ(emit_instant(w, "a.b.e", lpc::Layer::kEnvironment), 0u);
  // ScopedSpan degrades to a no-op as well.
  ScopedSpan span(w, "a.b.s", lpc::Layer::kEnvironment);
  EXPECT_FALSE(span.active());
}

// --- SpanTracer ----------------------------------------------------------

TEST(SpanTracer, ParentLinksAndAncestry) {
  SpanTracer t;
  const SpanId root = t.begin(sim::Time::ms(1), "root",
                              lpc::Layer::kEnvironment, 0);
  const SpanId mid = t.begin(sim::Time::ms(2), "mid",
                             lpc::Layer::kResource, root);
  const SpanId leaf = t.instant(sim::Time::ms(3), "leaf",
                                lpc::Layer::kAbstract, mid);
  t.end(mid, sim::Time::ms(4));
  t.end(root, sim::Time::ms(5));

  const auto chain = t.ancestry(leaf);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0]->name, "leaf");
  EXPECT_EQ(chain[1]->name, "mid");
  EXPECT_EQ(chain[2]->name, "root");
  EXPECT_EQ(chain[2]->parent, 0u);

  ASSERT_NE(t.find(mid), nullptr);
  EXPECT_FALSE(t.find(mid)->open());
  EXPECT_EQ(t.find(mid)->duration(), sim::Time::ms(2));
  EXPECT_TRUE(t.find(leaf)->instant);
  EXPECT_EQ(t.count_with_name("mid"), 1u);
}

TEST(SpanTracer, AnnotateAttachesArgs) {
  SpanTracer t;
  const SpanId id = t.begin(sim::Time::zero(), "s", lpc::Layer::kPhysical, 0);
  t.annotate(id, "channel", "6");
  t.annotate(0, "ignored", "x");  // id 0 is a safe no-op
  t.end(id, sim::Time::ms(1));
  ASSERT_EQ(t.records().size(), 1u);
  ASSERT_EQ(t.records()[0].args.size(), 1u);
  EXPECT_EQ(t.records()[0].args[0].first, "channel");
  EXPECT_EQ(t.records()[0].args[0].second, "6");
}

TEST(SpanTracer, CapacityCapCountsDropsAndKeepsHookAlive) {
  SpanTracer t;
  t.set_capacity(2);
  int hook_seen = 0;
  t.set_hook([&](const SpanRecord&) { ++hook_seen; });
  EXPECT_NE(t.instant(sim::Time::ms(1), "a", lpc::Layer::kEnvironment, 0,
                      sim::TraceLevel::kWarn),
            0u);
  EXPECT_NE(t.instant(sim::Time::ms(2), "b", lpc::Layer::kEnvironment, 0,
                      sim::TraceLevel::kWarn),
            0u);
  // Past the cap: not stored, counted, but the hook still fires so issue
  // miners keep working through long soaks.
  EXPECT_EQ(t.instant(sim::Time::ms(3), "c", lpc::Layer::kEnvironment, 0,
                      sim::TraceLevel::kWarn),
            0u);
  EXPECT_EQ(t.records().size(), 2u);
  EXPECT_EQ(t.dropped(), 1u);
  EXPECT_EQ(hook_seen, 3);
  t.clear();
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_TRUE(t.records().empty());
}

TEST(SpanTracer, DisabledReturnsNoOpIds) {
  SpanTracer t;
  t.set_enabled(false);
  EXPECT_EQ(t.begin(sim::Time::zero(), "s", lpc::Layer::kEnvironment, 0), 0u);
  EXPECT_TRUE(t.records().empty());
}

TEST(ScopedSpan, NestsThroughKernelTraceContext) {
  sim::World w(1);
  Telemetry telemetry(w);
  SpanId outer_id = 0, inner_id = 0;
  {
    ScopedSpan outer(w, "outer", lpc::Layer::kResource);
    outer_id = outer.id();
    EXPECT_EQ(w.sim().trace_context(), outer_id);
    {
      ScopedSpan inner(w, "inner", lpc::Layer::kAbstract);
      inner_id = inner.id();
    }
    EXPECT_EQ(w.sim().trace_context(), outer_id);  // restored
  }
  EXPECT_EQ(w.sim().trace_context(), 0u);
  const SpanRecord* inner = telemetry.spans().find(inner_id);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->parent, outer_id);
}

TEST(ScopedSpan, ParentsAcrossScheduledEvents) {
  // The span active at schedule time is restored while the event runs, so
  // a span opened inside the callback parents to it across the sim delay.
  sim::World w(1);
  Telemetry telemetry(w);
  SpanId cause_id = 0, effect_id = 0;
  {
    ScopedSpan cause(w, "cause", lpc::Layer::kResource);
    cause_id = cause.id();
    w.sim().schedule_in(sim::Time::ms(5), [&] {
      ScopedSpan effect(w, "effect", lpc::Layer::kAbstract);
      effect_id = effect.id();
    });
  }
  w.sim().run();
  const SpanRecord* effect = telemetry.spans().find(effect_id);
  ASSERT_NE(effect, nullptr);
  EXPECT_EQ(effect->parent, cause_id);
  EXPECT_EQ(effect->start, sim::Time::ms(5));
}

// --- Exporters -----------------------------------------------------------

TEST(Export, ChromeTraceAndJsonlShapes) {
  SpanTracer t;
  const SpanId a = t.begin(sim::Time::ms(1), "env.radio.frame",
                           lpc::Layer::kEnvironment, 0);
  t.annotate(a, "channel", "6");
  t.end(a, sim::Time::ms(3));
  t.instant(sim::Time::ms(2), "net.rx", lpc::Layer::kResource, a);

  const std::string chrome = to_chrome_trace(t);
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\": \"X\""), std::string::npos);  // closed span
  EXPECT_NE(chrome.find("\"ph\": \"i\""), std::string::npos);  // instant
  EXPECT_NE(chrome.find("env.radio.frame"), std::string::npos);
  EXPECT_NE(chrome.find("\"channel\": \"6\""), std::string::npos);

  const std::string jsonl = to_jsonl(t);
  // One line per record.
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
  EXPECT_NE(jsonl.find("\"parent\""), std::string::npos);
  EXPECT_NE(jsonl.find("net.rx"), std::string::npos);
}

// --- SpanIssueMiner ------------------------------------------------------

TEST(SpanIssueMiner, MinesWarningsWithDeclaredLayers) {
  SpanTracer t;
  lpc::IssueLog log;
  lpc::SpanIssueMiner miner(t, log);
  t.instant(sim::Time::ms(1), "phys.mac.drop_retry_limit",
            lpc::Layer::kPhysical, 0, sim::TraceLevel::kWarn);
  t.instant(sim::Time::ms(2), "phys.mac.drop_retry_limit",
            lpc::Layer::kPhysical, 0, sim::TraceLevel::kWarn);
  t.instant(sim::Time::ms(3), "disco.lease.expire", lpc::Layer::kAbstract, 0,
            sim::TraceLevel::kError);
  t.instant(sim::Time::ms(4), "routine", lpc::Layer::kResource, 0,
            sim::TraceLevel::kInfo);  // below threshold: ignored

  EXPECT_EQ(miner.mined(), 2u);
  EXPECT_EQ(miner.deduplicated(), 1u);
  ASSERT_EQ(log.issues().size(), 2u);
  // The layer comes straight off the record — no vocabulary guessing.
  EXPECT_EQ(log.issues()[0].layer, lpc::Layer::kPhysical);
  EXPECT_EQ(log.issues()[1].layer, lpc::Layer::kAbstract);
  const auto counts = miner.layer_counts();
  EXPECT_EQ(counts.at(lpc::Layer::kPhysical), 1u);
  EXPECT_EQ(counts.at(lpc::Layer::kAbstract), 1u);
}

// --- Telemetry bundle ----------------------------------------------------

TEST(Telemetry, AttachDetachTogglesWorldPointers) {
  sim::World w(1);
  EXPECT_EQ(w.metrics(), nullptr);
  EXPECT_EQ(w.spans(), nullptr);
  {
    Telemetry telemetry(w);
    EXPECT_EQ(w.metrics(), &telemetry.metrics());
    EXPECT_EQ(w.spans(), &telemetry.spans());
    telemetry.detach(w);
    EXPECT_EQ(w.metrics(), nullptr);
    EXPECT_EQ(w.spans(), nullptr);
    telemetry.attach(w);  // destructor also detaches
  }
  EXPECT_EQ(w.metrics(), nullptr);
  EXPECT_EQ(w.spans(), nullptr);
}

TEST(Telemetry, KernelSnapshotPullsSimCounters) {
  sim::World w(1);
  Telemetry telemetry(w);
  auto h = w.sim().schedule_in(sim::Time::ms(1), [] {});
  w.sim().schedule_in(sim::Time::ms(2), [] {});
  w.sim().cancel(h);
  w.sim().run();
  telemetry.snapshot_kernel(w);
  const MetricsRegistry& m = telemetry.metrics();
  ASSERT_NE(m.find_counter("sim.kernel.executed"), nullptr);
  EXPECT_EQ(m.find_counter("sim.kernel.executed")->value(), 1u);
  ASSERT_NE(m.find_counter("sim.kernel.cancelled"), nullptr);
  EXPECT_EQ(m.find_counter("sim.kernel.cancelled")->value(), 1u);
  ASSERT_NE(m.find_gauge("sim.kernel.peak_pending"), nullptr);
  EXPECT_EQ(m.find_gauge("sim.kernel.peak_pending")->value(), 2.0);
}

// --- End-to-end causal chain ---------------------------------------------
//
// The ISSUE's acceptance scenario: a radio-layer fault injected via
// diag::faults shows up (a) as a parented span chain crossing
// env -> net -> disco -> app, and (b) as metric deltas in a snapshot.

class ObsTestbed {
 public:
  /// Telemetry attaches between the world and the environment: components
  /// (the radio medium included) resolve metric handles at construction.
  explicit ObsTestbed(std::uint64_t seed, Telemetry* telemetry = nullptr)
      : world_(seed), attacher_(telemetry, world_), env_(world_) {}

  net::NetStack& add_node(std::uint64_t id, env::Vec2 pos) {
    devices_.push_back(std::make_unique<phys::Device>(
        world_, env_, id, phys::profiles::laptop(),
        std::make_unique<env::StaticMobility>(pos)));
    stacks_.push_back(
        std::make_unique<net::NetStack>(world_, devices_.back()->mac()));
    return *stacks_.back();
  }

  sim::World& world() { return world_; }
  env::Environment& environment() { return env_; }
  void run_until(double sec) { world_.sim().run_until(sim::Time::sec(sec)); }

 private:
  struct Attacher {
    Attacher(Telemetry* t, sim::World& w) {
      if (t != nullptr) t->attach(w);
    }
  };

  sim::World world_;
  Attacher attacher_;
  env::Environment env_;
  std::vector<std::unique_ptr<phys::Device>> devices_;
  std::vector<std::unique_ptr<net::NetStack>> stacks_;
};

std::vector<std::string> ancestry_names(const SpanTracer& spans, SpanId id) {
  std::vector<std::string> names;
  for (const SpanRecord* r : spans.ancestry(id)) names.push_back(r->name);
  return names;
}

bool contains(const std::vector<std::string>& names,
              const std::string& needle) {
  return std::find(names.begin(), names.end(), needle) != names.end();
}

TEST(CausalChain, ServiceEventSpansCrossEnvNetDiscoApp) {
  // Discovery event propagation: registrar -> radio frame -> listener's
  // net stack -> disco event dispatch -> app callback. Every hop must be
  // linked, across every scheduled-event boundary in between.
  Telemetry telemetry;
  ObsTestbed tb(5, &telemetry);

  auto& reg_stack = tb.add_node(1, {0, 8});
  auto& provider_stack = tb.add_node(2, {5, 0});
  auto& listener_stack = tb.add_node(3, {0, 5});
  disco::JiniRegistrar registrar(tb.world(), reg_stack);
  disco::JiniClient provider(tb.world(), provider_stack);
  disco::JiniClient listener(tb.world(), listener_stack);

  SpanId app_span = 0;
  listener.subscribe(
      disco::ServiceTemplate{"projector", {}},
      [&](const disco::ServiceDescription&, bool appeared) {
        if (!appeared) return;
        // The app layer reacts under its own span, as a real app would.
        ScopedSpan span(tb.world(), "app.on_service_event",
                        lpc::Layer::kIntentional);
        app_span = span.id();
      });
  tb.run_until(2.0);

  disco::ServiceDescription svc;
  svc.type = "projector/display";
  svc.endpoint = {2, 5800};
  provider.register_service(svc, [](bool, disco::ServiceId) {});
  tb.run_until(10.0);

  ASSERT_NE(app_span, 0u) << "service event never reached the app";
  const auto names = ancestry_names(telemetry.spans(), app_span);
  // The chain crosses all four layers, nearest-first.
  EXPECT_EQ(names.front(), "app.on_service_event");
  EXPECT_TRUE(contains(names, "disco.event")) << "disco hop missing";
  EXPECT_TRUE(contains(names, "net.rx")) << "net hop missing";
  EXPECT_TRUE(contains(names, "env.radio.frame")) << "radio hop missing";
  // And in causal order: app <- disco <- net <- env.
  const auto pos = [&](const std::string& n) {
    return std::find(names.begin(), names.end(), n) - names.begin();
  };
  EXPECT_LT(pos("disco.event"), pos("net.rx"));
  EXPECT_LT(pos("net.rx"), pos("env.radio.frame"));
}

TEST(CausalChain, InjectedRadioFaultParentsJammingAndMovesMetrics) {
  Telemetry telemetry;
  ObsTestbed tb(9, &telemetry);

  auto& sa = tb.add_node(1, {0, 0});
  auto& sb = tb.add_node(2, {6, 0});
  int delivered = 0;
  sb.bind(100, [&](const net::Datagram&) { ++delivered; });

  // Background traffic so the fault has something to disturb.
  sim::PeriodicTimer pump(tb.world().sim(), sim::Time::ms(50), [&] {
    sa.send({2, 100}, 50, std::vector<std::byte>(200));
  });
  pump.start();

  // Same channel as the traffic (devices default to channel 1): jamming
  // manifests as a CSMA stall — the sender defers while the jammer owns
  // the air — so the MAC queue backs up.
  diag::Jammer jammer(tb.world(), tb.environment().medium(), {3, 1}, 1,
                      20.0);
  diag::FaultInjector injector(tb.world());
  injector.inject(diag::FaultKind::kRfJamming, "cell-6", sim::Time::sec(2),
                  sim::Time::sec(2), [&](bool on) {
                    if (on) {
                      jammer.start();
                    } else {
                      jammer.stop();
                    }
                  });

  tb.run_until(1.5);
  const MetricsRegistry& m = telemetry.metrics();
  ASSERT_NE(m.find_counter("env.radio.transmissions"), nullptr);
  const std::uint64_t tx_before =
      m.find_counter("env.radio.transmissions")->value();
  ASSERT_NE(m.find_counter("diag.faults.injected"), nullptr);
  EXPECT_EQ(m.find_counter("diag.faults.injected")->value(), 1u);

  tb.run_until(6.0);
  pump.stop();

  // Metric deltas: the jammer burned airtime, and the stall it caused
  // shows as a deep MAC queue high-water mark (unjammed traffic at this
  // cadence never queues more than a frame or two).
  const std::uint64_t tx_after =
      m.find_counter("env.radio.transmissions")->value();
  EXPECT_GT(tx_after, tx_before + 100);  // ~500 jam bursts in 2 s
  ASSERT_NE(m.find_gauge("phys.mac.queue_depth_peak"), nullptr);
  EXPECT_GT(m.find_gauge("phys.mac.queue_depth_peak")->value(), 10.0);

  // Span chain: the fault toggle span is at the environment layer and
  // jammer transmissions parent to it.
  const SpanTracer& spans = telemetry.spans();
  const SpanRecord* fault = nullptr;
  for (const SpanRecord& r : spans.records()) {
    if (r.name == "diag.fault" && r.level == sim::TraceLevel::kWarn) {
      fault = &r;
      break;
    }
  }
  ASSERT_NE(fault, nullptr);
  EXPECT_EQ(fault->layer, lpc::Layer::kEnvironment);
  bool jam_frame_parented = false;
  for (const SpanRecord& r : spans.records()) {
    if (r.name != "env.radio.frame") continue;
    const auto chain = ancestry_names(spans, r.id);
    if (contains(chain, "diag.fault")) {
      jam_frame_parented = true;
      break;
    }
  }
  EXPECT_TRUE(jam_frame_parented)
      << "no radio frame traced back to the injected fault";
}

// --- Fleet-merge paths: MetricsRegistry::merge / SpanTracer::append_shard

TEST(MetricsMerge, CountersAddGaugesLastWriteWinsHistogramsBucketExact) {
  MetricsRegistry a;
  a.counter("net.stack.delivered", lpc::Layer::kResource).add(10);
  a.gauge("phys.mac.queue_depth_peak", lpc::Layer::kPhysical).set(3.0);
  sim::Histogram& ha =
      a.histogram("rfb.latency", lpc::Layer::kAbstract, 0.0, 10.0, 5);
  ha.add(1.0);
  ha.add(9.0);

  MetricsRegistry b;
  b.counter("net.stack.delivered", lpc::Layer::kResource).add(32);
  b.gauge("phys.mac.queue_depth_peak", lpc::Layer::kPhysical).set(7.0);
  sim::Histogram& hb =
      b.histogram("rfb.latency", lpc::Layer::kAbstract, 0.0, 10.0, 5);
  hb.add(1.5);
  hb.add(-4.0);  // clamps into the first bin
  b.counter("only.in.b", lpc::Layer::kEnvironment).add(2);

  a.merge(b);
  EXPECT_EQ(a.find_counter("net.stack.delivered")->value(), 42u);
  EXPECT_EQ(a.find_gauge("phys.mac.queue_depth_peak")->value(), 7.0);
  EXPECT_EQ(a.find_counter("only.in.b")->value(), 2u);
  const sim::Histogram* merged = a.find_histogram("rfb.latency");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count(), 4u);
  EXPECT_EQ(merged->clamped(), 1u);
  EXPECT_EQ(merged->bin(0), 3u);  // 1.0, 1.5, clamped -4.0
  EXPECT_EQ(merged->bin(4), 1u);  // 9.0
}

TEST(MetricsMerge, ShapeMismatchThrows) {
  MetricsRegistry a;
  a.histogram("h", lpc::Layer::kEnvironment, 0.0, 10.0, 5);
  MetricsRegistry b;
  b.histogram("h", lpc::Layer::kEnvironment, 0.0, 10.0, 6);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(MetricsMerge, AssociativeAndOrderDeterministic) {
  // Three shard registries with overlapping and disjoint names; merging
  // (a+b)+c and a+(b+c) into fresh accumulators must agree byte-for-byte,
  // and repeating the fold must reproduce it (registration-order walks).
  const auto make_shard = [](std::uint64_t k) {
    auto m = std::make_unique<MetricsRegistry>();
    m->counter("common.events", lpc::Layer::kEnvironment).add(k + 1);
    m->gauge("common.level", lpc::Layer::kResource)
        .set(static_cast<double>(k));
    m->histogram("common.h", lpc::Layer::kAbstract, 0.0, 8.0, 4)
        .add(static_cast<double>(k));
    m->counter("shard." + std::to_string(k), lpc::Layer::kIntentional).add(k);
    return m;
  };
  const auto a = make_shard(0), b = make_shard(1), c = make_shard(2);

  MetricsRegistry left;  // (a + b) + c
  left.merge(*a);
  left.merge(*b);
  left.merge(*c);
  MetricsRegistry bc;  // a + (b + c)
  bc.merge(*b);
  bc.merge(*c);
  MetricsRegistry right;
  right.merge(*a);
  right.merge(bc);
  EXPECT_EQ(left.to_json(), right.to_json());

  MetricsRegistry again;
  again.merge(*a);
  again.merge(*b);
  again.merge(*c);
  EXPECT_EQ(left.to_json(), again.to_json());
}

TEST(SpanMerge, AppendShardRemapsIdsAndParents) {
  SpanTracer shard;
  const SpanId root = shard.begin(sim::Time::ms(1), "root",
                                  lpc::Layer::kEnvironment, 0);
  const SpanId child = shard.begin(sim::Time::ms(2), "child",
                                   lpc::Layer::kResource, root);
  shard.end(child, sim::Time::ms(3));
  shard.end(root, sim::Time::ms(4));

  SpanTracer fleet;
  fleet.append_shard(shard, 2);
  ASSERT_EQ(fleet.records().size(), 2u);
  const std::uint64_t base = std::uint64_t{3} << SpanTracer::kShardIdShift;
  const SpanRecord* r0 = fleet.find(base | root);
  const SpanRecord* r1 = fleet.find(base | child);
  ASSERT_NE(r0, nullptr);
  ASSERT_NE(r1, nullptr);
  EXPECT_EQ(r0->parent, 0u);  // roots stay roots
  EXPECT_EQ(r1->parent, base | root);
  EXPECT_EQ(r1->name, "child");
  // Ancestry walks still work through remapped links.
  const auto chain = fleet.ancestry(base | child);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[1]->name, "root");
}

TEST(SpanMerge, AppendShardDeterministicInShardOrderAndDistinct) {
  SpanTracer s0, s1;
  s0.instant(sim::Time::ms(1), "a", lpc::Layer::kEnvironment, 0);
  s1.instant(sim::Time::ms(1), "a", lpc::Layer::kEnvironment, 0);

  SpanTracer fleet;
  fleet.append_shard(s0, 0);
  fleet.append_shard(s1, 1);
  ASSERT_EQ(fleet.records().size(), 2u);
  // Same local id in both shards, but the merged ids never collide.
  EXPECT_NE(fleet.records()[0].id, fleet.records()[1].id);

  SpanTracer again;
  again.append_shard(s0, 0);
  again.append_shard(s1, 1);
  for (std::size_t i = 0; i < fleet.records().size(); ++i) {
    EXPECT_EQ(fleet.records()[i].id, again.records()[i].id);
  }
}

TEST(SpanMerge, AppendShardRespectsCapacity) {
  SpanTracer shard;
  for (int i = 0; i < 10; ++i) {
    shard.instant(sim::Time::ms(i), "e", lpc::Layer::kEnvironment, 0);
  }
  SpanTracer fleet;
  fleet.set_capacity(4);
  fleet.append_shard(shard, 0);
  EXPECT_EQ(fleet.records().size(), 4u);
  EXPECT_EQ(fleet.dropped(), 6u);
}

// --- HdrHistogram --------------------------------------------------------

TEST(HdrHistogram, EmptyReportsZerosEverywhere) {
  HdrHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.p50(), 0u);
  EXPECT_EQ(h.p99(), 0u);
  EXPECT_EQ(h.p999(), 0u);
  EXPECT_EQ(h.value_at_quantile(0.0), 0u);
  EXPECT_EQ(h.value_at_quantile(1.0), 0u);
}

TEST(HdrHistogram, SingleSampleIsEveryQuantile) {
  HdrHistogram h;
  h.record(12345);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 12345u);
  EXPECT_EQ(h.max(), 12345u);
  // One sample defines the whole distribution: every quantile clamps to it.
  EXPECT_EQ(h.value_at_quantile(0.0), 12345u);
  EXPECT_EQ(h.p50(), 12345u);
  EXPECT_EQ(h.p99(), 12345u);
  EXPECT_EQ(h.p999(), 12345u);
  EXPECT_EQ(h.value_at_quantile(1.0), 12345u);
}

TEST(HdrHistogram, SmallValuesAreExactLargeOnesBounded) {
  HdrHistogram h;
  for (std::uint64_t v = 0; v < HdrHistogram::kSubBucketCount; ++v) {
    EXPECT_EQ(HdrHistogram::bucket_upper(HdrHistogram::bucket_index(v)), v);
  }
  // Above the exact range, the bucket upper bound overshoots by at most
  // 1/32 of the value (5 significant bits preserved).
  for (std::uint64_t v : {100ull, 1000ull, 123456ull, 987654321ull,
                          (1ull << 39) + 12345ull}) {
    const std::uint64_t upper =
        HdrHistogram::bucket_upper(HdrHistogram::bucket_index(v));
    EXPECT_GE(upper, v);
    EXPECT_LE(upper - v, v / 32 + 1);
  }
  h.record(1000);
  const std::uint64_t p = h.p50();
  EXPECT_GE(p, 1000u);
  EXPECT_LE(p - 1000u, 1000u / 32 + 1);
}

TEST(HdrHistogram, QuantilesAreMonotoneAndBoundedByMinMax) {
  HdrHistogram h;
  for (std::uint64_t v = 1; v <= 10000; v += 7) h.record(v * 13);
  EXPECT_LE(h.min(), h.p50());
  EXPECT_LE(h.p50(), h.p99());
  EXPECT_LE(h.p99(), h.p999());
  EXPECT_LE(h.p999(), h.max());
  EXPECT_EQ(h.value_at_quantile(1.0), h.max());
  EXPECT_EQ(h.value_at_quantile(0.0), h.min());
}

TEST(HdrHistogram, SaturationClampsIntoTopBucket) {
  HdrHistogram h;
  h.record(HdrHistogram::kMaxValue);
  EXPECT_EQ(h.saturated(), 0u);
  h.record(HdrHistogram::kMaxValue + 5);
  h.record(~std::uint64_t{0});
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.saturated(), 2u);
  // Clamped samples land in the top bucket: percentiles stay in range.
  EXPECT_LE(h.p999(), HdrHistogram::kMaxValue);
  EXPECT_LE(h.max(), HdrHistogram::kMaxValue);
}

TEST(HdrHistogram, MergeIsAssociativeAcrossShardOrders) {
  // Three shards with very different distributions; every fold order and
  // grouping must produce bit-identical state.
  HdrHistogram a, b, c;
  for (std::uint64_t v = 1; v < 100; ++v) a.record(v);
  for (std::uint64_t v = 1000; v < 5000; v += 3) b.record(v);
  c.record(HdrHistogram::kMaxValue + 1);  // saturation must merge too
  c.record(7);

  const auto fold = [](std::vector<const HdrHistogram*> order) {
    HdrHistogram out;
    for (const HdrHistogram* h : order) out.merge_from(*h);
    return out;
  };
  const HdrHistogram abc = fold({&a, &b, &c});
  const HdrHistogram cba = fold({&c, &b, &a});
  const HdrHistogram grouped = [&] {  // a + (b + c)
    const HdrHistogram bc = fold({&b, &c});
    HdrHistogram out;
    out.merge_from(a);
    out.merge_from(bc);
    return out;
  }();

  for (const HdrHistogram* m : {&cba, &grouped}) {
    EXPECT_EQ(m->count(), abc.count());
    EXPECT_EQ(m->saturated(), abc.saturated());
    EXPECT_EQ(m->min(), abc.min());
    EXPECT_EQ(m->max(), abc.max());
    EXPECT_DOUBLE_EQ(m->mean(), abc.mean());
    for (std::size_t i = 0; i < HdrHistogram::kBucketCount; ++i) {
      ASSERT_EQ(m->bucket(i), abc.bucket(i)) << "bucket " << i;
    }
  }
  EXPECT_EQ(abc.count(), a.count() + b.count() + c.count());
}

TEST(HdrHistogram, SnapRoundTripThroughMetricsRegistry) {
  MetricsRegistry m;
  HdrHistogram& h = m.hdr("disco.lookup.latency_us", lpc::Layer::kAbstract);
  for (std::uint64_t v = 1; v < 2000; v += 11) h.record(v * 17);
  h.record(HdrHistogram::kMaxValue + 99);
  m.counter("x.y", lpc::Layer::kResource).add(3);

  snap::SectionWriter w(sim::Time::zero());
  m.save(w);
  const std::vector<std::uint8_t> bytes = w.take();

  MetricsRegistry back;
  snap::SectionReader r(bytes, sim::Time::zero());
  back.restore(r);
  const HdrHistogram* g = back.find_hdr("disco.lookup.latency_us");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->count(), h.count());
  EXPECT_EQ(g->saturated(), h.saturated());
  EXPECT_EQ(g->min(), h.min());
  EXPECT_EQ(g->max(), h.max());
  EXPECT_EQ(g->p50(), h.p50());
  EXPECT_EQ(g->p99(), h.p99());
  EXPECT_EQ(g->p999(), h.p999());
  for (std::size_t i = 0; i < HdrHistogram::kBucketCount; ++i) {
    ASSERT_EQ(g->bucket(i), h.bucket(i));
  }
}

TEST(HdrHistogram, RegistryJsonAndMergeCarryHdrs) {
  MetricsRegistry m;
  m.hdr("net.stream.rtt_us", lpc::Layer::kResource).record(500);
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"net.stream.rtt_us\""), std::string::npos);
  EXPECT_NE(json.find("\"hdr\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);

  MetricsRegistry shard;
  shard.hdr("net.stream.rtt_us", lpc::Layer::kResource).record(700);
  m.merge(shard);
  EXPECT_EQ(m.find_hdr("net.stream.rtt_us")->count(), 2u);
  EXPECT_EQ(m.find_hdr("net.stream.rtt_us")->max(), 700u);
}

// --- FlightRecorder ------------------------------------------------------

TEST(FlightRecorder, RingKeepsTheNewestRecords) {
  FlightRecorder rec(/*capacity=*/8, /*shard=*/3);
  sim::Simulator s;
  rec.attach(s);
  for (std::uint64_t i = 0; i < 20; ++i) {
    s.schedule_at(sim::Time::us(i), sim::EventCategory::kMac, [] {});
  }
  s.run();  // event ids 1..20
  rec.detach(s);
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_EQ(rec.total(), 20u);
  EXPECT_EQ(rec.size(), 8u);
  const std::vector<FlightRecord> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  // Chronological, oldest surviving record first.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].a, 12 + i + 1);  // ids 13..20 survive
    EXPECT_EQ(snap[i].shard, 3u);
    EXPECT_EQ(snap[i].kind,
              static_cast<std::uint16_t>(FlightKind::kKernelEvent));
  }
  EXPECT_LE(snap.front().t_ns, snap.back().t_ns);
}

TEST(FlightRecorder, DumpRoundTripsRecordsNamesAndCheckpoint) {
  FlightRecorder rec(16);
  sim::Simulator s;
  rec.attach(s);
  s.schedule_at(sim::Time::ms(1), sim::EventCategory::kRadio, [] {});
  s.run();  // one kernel event, id 1
  rec.detach(s);
  rec.record_marker(sim::Time::ms(2), "phase.start");
  // Span edges come from the span source at dump time, merged into the
  // ring's window in time order.
  SpanTracer spans;
  const SpanId span = spans.begin(sim::Time::ms(3), "rfb.update",
                                  lpc::Layer::kAbstract, /*parent=*/7);
  rec.set_span_source(&spans);
  rec.record_metric(sim::Time::ms(4), rec.intern("phys.mac.retries"), 9, 4);
  rec.record_watchdog(sim::Time::ms(5), rec.intern("watchdog.retry_storm"),
                      70, 64);
  rec.note_checkpoint(5, sim::Time::ms(4),
                      std::vector<std::uint8_t>{0xde, 0xad, 0xbe, 0xef});

  const std::vector<std::uint8_t> blob = rec.dump("test dump");
  const FlightDump dump = FlightDump::parse(blob);
  EXPECT_EQ(dump.version, kFlightDumpVersion);
  EXPECT_EQ(dump.reason, "test dump");
  EXPECT_EQ(dump.capacity, 16u);
  ASSERT_EQ(dump.records.size(), 6u);  // 5 explicit + kCheckpoint marker
  EXPECT_EQ(dump.records[0].kind,
            static_cast<std::uint16_t>(FlightKind::kKernelEvent));
  EXPECT_EQ(dump.records[2].kind,
            static_cast<std::uint16_t>(FlightKind::kSpanOpen));
  EXPECT_EQ(dump.records[2].t_ns, sim::Time::ms(3).count());
  EXPECT_EQ(dump.records[2].a, span);
  EXPECT_EQ(dump.records[2].b, 7u);  // parent
  EXPECT_EQ(dump.names.at(dump.records[2].code), "rfb.update");
  EXPECT_EQ(dump.names.at(dump.records[4].code), "watchdog.retry_storm");
  ASSERT_TRUE(dump.has_checkpoint);
  EXPECT_EQ(dump.checkpoint_id, 5u);
  EXPECT_EQ(dump.checkpoint,
            (std::vector<std::uint8_t>{0xde, 0xad, 0xbe, 0xef}));

  // The replay cursor: last kernel event at or before a fire instant.
  const FlightRecord* at =
      dump.last_kernel_event_at_or_before(sim::Time::ms(5).count());
  ASSERT_NE(at, nullptr);
  EXPECT_EQ(at->a, 1u);
  EXPECT_EQ(dump.last_kernel_event_at_or_before(
                sim::Time::us(500).count()),
            nullptr);
}

TEST(FlightRecorder, SharesTheTraceSlotWithNoOtherConsumer) {
  // The recorder and a replay harness both consume the kernel's one trace
  // slot; whichever attaches second is refused rather than silently
  // overwriting the first.
  sim::Simulator s;
  FlightRecorder rec(16);
  rec.attach(s);
  rec.attach(s);  // re-attaching the holder is a no-op
  snap::ReplayHarness harness;
  EXPECT_THROW(harness.attach(s), std::logic_error);
  harness.detach(s);  // not the holder: must not free the recorder's slot
  for (int i = 1; i <= 3; ++i) {
    s.schedule_at(sim::Time::ms(i), sim::EventCategory::kMac, [] {});
  }
  s.run();
  EXPECT_EQ(rec.total(), 3u);  // the recorder kept recording
  EXPECT_EQ(harness.size(), 0u);
  rec.detach(s);

  harness.attach(s);
  FlightRecorder late(16);
  EXPECT_THROW(late.attach(s), std::logic_error);
  late.detach(s);
  s.schedule_at(sim::Time::ms(5), [] {});
  s.run();
  EXPECT_EQ(harness.size(), 1u);
  EXPECT_EQ(late.total(), 0u);
  harness.detach(s);
  EXPECT_EQ(s.event_trace(), nullptr);
}

TEST(FlightRecorder, AppendShardReinternsAndStamps) {
  FlightRecorder shard(8, 0);
  shard.record_marker(sim::Time::ms(1), "alpha");
  sim::Simulator s;
  shard.attach(s);
  s.schedule_at(sim::Time::ms(2), sim::EventCategory::kApp, [] {});
  s.run();
  shard.detach(s);

  FlightRecorder fleet(32, 0);
  fleet.record_marker(sim::Time::ms(1), "beta");  // occupies code 0 here
  fleet.append_shard(shard, 7);
  const std::vector<FlightRecord> snap = fleet.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[1].shard, 7u);
  EXPECT_EQ(snap[2].shard, 7u);
  EXPECT_EQ(fleet.names().at(snap[1].code), "alpha");  // re-interned
  EXPECT_EQ(snap[2].code,
            static_cast<std::uint16_t>(sim::EventCategory::kApp));
}

// --- WatchdogSet ---------------------------------------------------------

TEST(Watchdog, StallFiresExactlyAtRunLimit) {
  sim::World w(1);
  Telemetry telemetry(w);
  WatchdogOptions opt;
  opt.stall_run_limit = 50;
  WatchdogSet dogs(w, opt);
  FlightRecorder rec(64);
  rec.set_watchdogs(&dogs);
  dogs.set_recorder(&rec);
  rec.attach(w.sim());

  int fired_hook = 0;
  dogs.set_dump_hook([&](const WatchdogFire& f) {
    ++fired_hook;
    EXPECT_EQ(f.which, Watchdog::kSimStall);
    EXPECT_EQ(f.value, opt.stall_run_limit);
  });

  // A bounded zero-delay chain: 80 events at one timestamp.
  int remaining = 80;
  std::function<void()> chain = [&] {
    if (--remaining > 0) w.sim().schedule_in(sim::Time::zero(), chain);
  };
  w.sim().schedule_in(sim::Time::ms(1), chain);
  w.sim().run();

  EXPECT_EQ(dogs.fired(Watchdog::kSimStall), 1u);  // once, not per event
  EXPECT_EQ(fired_hook, 1);
  ASSERT_EQ(dogs.fires().size(), 1u);
  EXPECT_EQ(dogs.fires()[0].at, sim::Time::ms(1));
  // The fire reached the metrics registry and the span tracer.
  EXPECT_EQ(telemetry.metrics().find_counter("obs.watchdog.fires")->value(),
            1u);
  EXPECT_EQ(telemetry.spans().count_with_name("watchdog.sim_stall"), 1u);
  rec.detach(w.sim());
}

TEST(Watchdog, CounterDeltaWatchdogsFireOncePerWindowBreach) {
  sim::World w(1);
  Telemetry telemetry(w);
  WatchdogOptions opt;
  opt.window = sim::Time::ms(10);
  opt.lease_churn_limit = 4;
  opt.retry_storm_limit = 1000;  // stays quiet
  WatchdogSet dogs(w, opt);
  FlightRecorder rec(64);
  rec.set_watchdogs(&dogs);
  rec.attach(w.sim());

  Counter& grants =
      telemetry.metrics().counter("disco.lease.grants", lpc::Layer::kAbstract);
  // Window 1: below the limit. Window 2: storm.
  w.sim().schedule_in(sim::Time::ms(1), [&] { grants.add(2); });
  w.sim().schedule_in(sim::Time::ms(12), [&] { grants.add(2); });
  w.sim().schedule_in(sim::Time::ms(14), [&] { grants.add(6); });
  w.sim().schedule_in(sim::Time::ms(25), [] {});  // closes window 2
  w.sim().schedule_in(sim::Time::ms(40), [] {});
  w.sim().run();

  EXPECT_EQ(dogs.fired(Watchdog::kLeaseChurn), 1u);
  EXPECT_EQ(dogs.fired(Watchdog::kRetryStorm), 0u);
  EXPECT_EQ(dogs.fired(Watchdog::kQueueDepth), 0u);
  rec.detach(w.sim());
}

TEST(Watchdog, FiresAreCappedPerWatchdog) {
  sim::World w(1);
  Telemetry telemetry(w);
  WatchdogOptions opt;
  opt.window = sim::Time::ms(1);
  opt.span_drop_surge = 1;
  opt.max_fires_each = 2;
  WatchdogSet dogs(w, opt);
  FlightRecorder rec(64);
  rec.set_watchdogs(&dogs);
  rec.attach(w.sim());

  telemetry.spans().set_capacity(1);
  telemetry.spans().begin(sim::Time::zero(), "filler",
                          lpc::Layer::kEnvironment, 0);
  // Every window drops more spans; the watchdog must go quiet after 2.
  for (int i = 1; i <= 20; ++i) {
    w.sim().schedule_in(sim::Time::ms(2 * i), [&] {
      emit_instant(w, "noise", lpc::Layer::kEnvironment);
    });
  }
  w.sim().run();
  EXPECT_GT(telemetry.spans().dropped(), 2u);
  EXPECT_EQ(dogs.fired(Watchdog::kSpanDropSurge), opt.max_fires_each);
  rec.detach(w.sim());
}

TEST(Watchdog, FiresMineIntoClassifiedIssues) {
  sim::World w(1);
  Telemetry telemetry(w);
  lpc::IssueLog log;
  lpc::SpanIssueMiner miner(telemetry.spans(), log);
  WatchdogOptions opt;
  opt.window = sim::Time::ms(10);
  opt.retry_storm_limit = 5;
  WatchdogSet dogs(w, opt);
  FlightRecorder rec(64);
  rec.set_watchdogs(&dogs);
  rec.attach(w.sim());

  Counter& retries =
      telemetry.metrics().counter("phys.mac.retries", lpc::Layer::kPhysical);
  w.sim().schedule_in(sim::Time::ms(1), [&] { retries.add(50); });
  w.sim().schedule_in(sim::Time::ms(15), [] {});
  w.sim().run();

  ASSERT_EQ(dogs.fired(Watchdog::kRetryStorm), 1u);
  ASSERT_FALSE(log.issues().empty());
  const lpc::Issue& issue = log.issues().front();
  // The "classify" arg routed the fire through the layer classifier, which
  // reads "interference ... radio band" as an Environment-layer problem.
  EXPECT_TRUE(issue.classified);
  EXPECT_EQ(issue.layer, lpc::Layer::kEnvironment);
  rec.detach(w.sim());
}

TEST(SpanIssueMiner, WarnsOnceWhenSpansDrop) {
  SpanTracer t;
  t.set_capacity(1);
  lpc::IssueLog log;
  lpc::SpanIssueMiner miner(t, log);
  t.begin(sim::Time::zero(), "filler", lpc::Layer::kEnvironment, 0);
  t.instant(sim::Time::ms(1), "a", lpc::Layer::kEnvironment, 0,
            sim::TraceLevel::kInfo);  // dropped; below warn threshold
  EXPECT_EQ(log.issues().size(), 1u);  // the drop warning itself
  t.instant(sim::Time::ms(2), "b", lpc::Layer::kEnvironment, 0,
            sim::TraceLevel::kInfo);
  miner.check_drops();  // end-of-run sweep: still just one warning
  ASSERT_EQ(log.issues().size(), 1u);
  EXPECT_EQ(log.issues()[0].entity, "obs.spans");
  EXPECT_NE(log.issues()[0].description.find("dropped"), std::string::npos);
}

// --- TimeseriesSampler ---------------------------------------------------

TEST(TimeseriesSampler, SamplesChangedTracksOnCadence) {
  sim::World w(1);
  Telemetry telemetry(w);
  Counter& c = telemetry.metrics().counter("a.count", lpc::Layer::kResource);
  Gauge& g = telemetry.metrics().gauge("a.gauge", lpc::Layer::kResource);
  g.set(1.0);

  TimeseriesSampler::Options opt;
  opt.period = sim::Time::ms(10);
  TimeseriesSampler sampler(telemetry.metrics(), opt);
  FlightRecorder rec(64);
  rec.set_sampler(&sampler);
  sampler.set_recorder(&rec);
  rec.attach(w.sim());

  for (int i = 1; i <= 5; ++i) {
    w.sim().schedule_in(sim::Time::ms(10 * i), [&c] { c.add(3); });
  }
  w.sim().run();
  sampler.take_sample(w.now());  // close the tracks

  ASSERT_EQ(sampler.tracks().size(), 2u);
  const auto& counter_track = sampler.tracks()[0];
  EXPECT_EQ(counter_track.name, "a.count");
  EXPECT_TRUE(counter_track.is_counter);
  ASSERT_GE(counter_track.samples.size(), 2u);
  // Values only ever grow along the track, and the final sample is current.
  for (std::size_t i = 1; i < counter_track.samples.size(); ++i) {
    EXPECT_GT(counter_track.samples[i].value,
              counter_track.samples[i - 1].value);
    EXPECT_GE(counter_track.samples[i].t_ns,
              counter_track.samples[i - 1].t_ns);
  }
  EXPECT_EQ(counter_track.samples.back().value, 15.0);
  // The unchanged gauge got exactly one sample (its baseline).
  EXPECT_EQ(sampler.tracks()[1].samples.size(), 1u);
  // Counter deltas reached the flight ring as kMetricDelta records.
  const auto snap = rec.snapshot();
  EXPECT_TRUE(std::any_of(snap.begin(), snap.end(), [](const FlightRecord& r) {
    return r.kind == static_cast<std::uint16_t>(FlightKind::kMetricDelta);
  }));
  rec.detach(w.sim());
}

TEST(TimeseriesSampler, PerTrackCapCountsDrops) {
  MetricsRegistry m;
  Counter& c = m.counter("x", lpc::Layer::kResource);
  TimeseriesSampler::Options opt;
  opt.max_samples_per_track = 3;
  TimeseriesSampler sampler(m, opt);
  for (int i = 1; i <= 10; ++i) {
    c.add();
    sampler.take_sample(sim::Time::ms(i));
  }
  EXPECT_EQ(sampler.tracks()[0].samples.size(), 3u);
  EXPECT_EQ(sampler.samples_dropped(), 7u);
}

TEST(Export, ChromeTraceCarriesSamplerCounterTracks) {
  MetricsRegistry m;
  Counter& c = m.counter("obs.test.count", lpc::Layer::kResource);
  TimeseriesSampler sampler(m);
  c.add(4);
  sampler.take_sample(sim::Time::ms(1));
  SpanTracer spans;
  const std::string json = to_chrome_trace(spans, &sampler);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"obs.test.count\""), std::string::npos);
  // The old single-argument form still works and omits counter rows.
  EXPECT_EQ(to_chrome_trace(spans).find("\"ph\": \"C\""), std::string::npos);
}

}  // namespace
}  // namespace aroma::obs
