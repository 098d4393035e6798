// FIG2 — the environment + physical layers (paper Figure 2).
//
// Runs the study the paper explicitly calls for: "There are many wireless
// devices operating in the 2.4 GHz radio band, and the effect of a high
// concentration of these devices needs to be studied."
//
// Table A: saturated cell — aggregate throughput, per-node goodput, retry
//          rate and drops vs. number of co-located senders (one channel).
// Table B: channel planning — the same dense cell on one channel vs.
//          spread across the non-overlapping 1/6/11 plan.
// Table C: ranging — delivery probability and RSSI vs. distance, the
//          physical-layer "compatible with" constraint made measurable.
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>

#include "bench/common.hpp"
#include "env/propagation.hpp"
#include "sim/fleet.hpp"
#include "sim/stats.hpp"

namespace {

using namespace aroma;

// Metrics-only telemetry for the single-threaded sweeps (the Monte-Carlo
// trials on the work-stealing pool stay untouched: the registry is not
// meant to be shared across threads). Counters land in BENCH_metrics.json.
obs::Telemetry* g_metrics = nullptr;

struct CellResult {
  double aggregate_kbps = 0.0;
  double per_node_kbps = 0.0;
  double retry_rate = 0.0;
  double drop_rate = 0.0;
};

/// N saturated senders stream 1000-byte datagrams to a central sink for
/// `seconds`. Channel assignment comes from `channel_of(i)`.
CellResult run_cell(int n_senders, double seconds, std::uint64_t seed,
                    const std::function<int(int)>& channel_of) {
  benchsup::Cell cell(seed);
  benchsup::ScopedTelemetry scoped(g_metrics, cell.world());
  auto sink = cell.add(phys::profiles::aroma_adapter(), {0, 0},
                       channel_of(0));
  std::uint64_t received_bytes = 0;
  sink.stack->bind(1000, [&](const net::Datagram& dg) {
    received_bytes += dg.data.size();
  });
  // Sinks for other channels so senders always have an in-channel receiver.
  std::vector<benchsup::Cell::Node> extra_sinks;
  std::vector<std::uint64_t> extra_bytes(16, 0);

  std::vector<benchsup::Cell::Node> senders;
  std::vector<std::uint64_t> sent_attempts(static_cast<std::size_t>(n_senders));
  for (int i = 0; i < n_senders; ++i) {
    const double angle = 2.0 * 3.14159265 * i / n_senders;
    const double radius = 8.0 + (i % 3);
    senders.push_back(cell.add(
        phys::profiles::laptop(),
        {radius * std::cos(angle), radius * std::sin(angle)},
        channel_of(i + 1)));
  }
  // One sink per distinct channel, co-located with the main sink.
  std::map<int, net::NodeId> sink_for_channel;
  sink_for_channel[channel_of(0)] = sink.stack->node_id();
  for (int i = 0; i < n_senders; ++i) {
    const int ch = channel_of(i + 1);
    if (!sink_for_channel.count(ch)) {
      auto s = cell.add(phys::profiles::aroma_adapter(), {0.5, 0.5}, ch);
      s.stack->bind(1000, [&received_bytes](const net::Datagram& dg) {
        received_bytes += dg.data.size();
      });
      sink_for_channel[ch] = s.stack->node_id();
      extra_sinks.push_back(s);
    }
  }

  // Saturation: each sender keeps exactly one datagram in flight.
  std::function<void(int)> pump = [&](int i) {
    const int ch = channel_of(i + 1);
    ++sent_attempts[static_cast<std::size_t>(i)];
    senders[static_cast<std::size_t>(i)].stack->send(
        {sink_for_channel[ch], 1000}, 999, std::vector<std::byte>(1000),
        [&, i](bool) {
          if (cell.world().now() < sim::Time::sec(seconds)) pump(i);
        });
  };
  for (int i = 0; i < n_senders; ++i) pump(i);
  cell.run_until(seconds + 5.0);

  CellResult r;
  r.aggregate_kbps = received_bytes * 8.0 / seconds / 1000.0;
  r.per_node_kbps = r.aggregate_kbps / n_senders;
  std::uint64_t retries = 0, drops = 0, sent = 0;
  for (auto& s : senders) {
    retries += s.device->mac().stats().retries;
    drops += s.device->mac().stats().drops_retry_limit;
    sent += s.device->mac().stats().sent_data;
  }
  r.retry_rate = sent ? static_cast<double>(retries) / sent : 0.0;
  std::uint64_t attempts = 0;
  for (auto a : sent_attempts) attempts += a;
  r.drop_rate = attempts ? static_cast<double>(drops) / attempts : 0.0;
  cell.environment().medium().publish_metrics();  // no-op when detached
  return r;
}

void table_a_density() {
  benchsup::table_header(
      "Table A: 2.4 GHz congestion, single channel (saturated senders)",
      {"senders", "aggr-kbps", "per-node-kbps", "retry-rate", "drop-rate"});
  for (int n : {1, 2, 4, 8, 12, 16, 20}) {
    const auto r = run_cell(n, 15.0, 42 + n, [](int) { return 6; });
    benchsup::table_row(static_cast<double>(n), r.aggregate_kbps,
                        r.per_node_kbps, r.retry_rate, r.drop_rate);
  }
}

void table_b_channel_plan() {
  benchsup::table_header(
      "Table B: 12 senders, channel planning",
      {"plan", "aggr-kbps", "per-node-kbps", "retry-rate"});
  const auto one = run_cell(12, 15.0, 7, [](int) { return 6; });
  benchsup::table_row(std::string("all-ch6"), one.aggregate_kbps,
                      one.per_node_kbps, one.retry_rate);
  const int plan[] = {1, 6, 11};
  const auto spread =
      run_cell(12, 15.0, 7, [&](int i) { return plan[i % 3]; });
  benchsup::table_row(std::string("1/6/11"), spread.aggregate_kbps,
                      spread.per_node_kbps, spread.retry_rate);
}

void table_c_ranging() {
  benchsup::table_header(
      "Table C: ranging (1000-byte datagrams, 50 trials per distance)",
      {"distance-m", "rssi-dbm", "delivery-prob"});
  env::PathLossModel::Params plp;  // defaults incl. shadowing
  for (double d : {5.0, 20.0, 50.0, 80.0, 110.0, 140.0, 170.0, 200.0}) {
    sim::Accumulator delivered;
    std::vector<double> results(50);
    sim::WorkStealingPool::run(0, 50, [&, d](std::size_t trial, std::size_t) {
      benchsup::Cell cell(1000 + trial * 13 + static_cast<std::uint64_t>(d));
      auto rx = cell.add(phys::profiles::aroma_adapter(), {0, 0});
      auto tx = cell.add(phys::profiles::laptop(), {d, 0});
      int got = 0;
      rx.stack->bind(1000,
                     [&](const net::Datagram&) { ++got; });
      for (int k = 0; k < 4; ++k) {
        tx.stack->send({rx.stack->node_id(), 1000}, 999,
                       std::vector<std::byte>(1000));
      }
      cell.run_until(5.0);
      results[trial] = got / 4.0;
    });
    for (double v : results) delivered.add(v);
    const env::PathLossModel pl{plp};
    const double rssi = pl.received_dbm(15.0, {0, 0}, {d, 0});
    benchsup::table_row(d, rssi, delivered.mean());
  }
}

/// Ablation from DESIGN.md: how the MAC's backoff window shapes the
/// congestion collapse point.
void table_d_backoff_ablation() {
  benchsup::table_header(
      "Table D: backoff ablation, 12 saturated senders on one channel",
      {"cw-min", "cw-max", "aggr-kbps", "retry-rate"});
  for (const auto& [cw_min, cw_max] :
       std::vector<std::pair<int, int>>{{4, 16}, {16, 1024}, {64, 4096}}) {
    benchsup::Cell cell(90 + static_cast<std::uint64_t>(cw_min));
    phys::Device::Options opt;
    opt.channel = 6;
    opt.mac.cw_min = cw_min;
    opt.mac.cw_max = cw_max;
    auto sink = cell.add_with_options(phys::profiles::aroma_adapter(), {0, 0},
                                      opt);
    std::uint64_t received = 0;
    sink.stack->bind(1000, [&](const net::Datagram& dg) {
      received += dg.data.size();
    });
    std::vector<benchsup::Cell::Node> senders;
    for (int i = 0; i < 12; ++i) {
      const double angle = 2.0 * 3.14159265 * i / 12;
      senders.push_back(cell.add_with_options(
          phys::profiles::laptop(),
          {9.0 * std::cos(angle), 9.0 * std::sin(angle)}, opt));
    }
    const double seconds = 15.0;
    std::function<void(int)> pump = [&](int i) {
      senders[static_cast<std::size_t>(i)].stack->send(
          {sink.stack->node_id(), 1000}, 999, std::vector<std::byte>(1000),
          [&, i](bool) {
            if (cell.world().now() < sim::Time::sec(seconds)) pump(i);
          });
    };
    for (int i = 0; i < 12; ++i) pump(i);
    cell.run_until(seconds + 5.0);
    std::uint64_t retries = 0, sent = 0;
    for (auto& s : senders) {
      retries += s.device->mac().stats().retries;
      sent += s.device->mac().stats().sent_data;
    }
    benchsup::table_row(static_cast<double>(cw_min),
                        static_cast<double>(cw_max),
                        received * 8.0 / seconds / 1000.0,
                        sent ? static_cast<double>(retries) / sent : 0.0);
  }
}

}  // namespace

int main() {
  obs::TelemetryOptions topt;
  topt.spans = false;
  obs::Telemetry telemetry(topt);
  g_metrics = &telemetry;

  std::printf("== FIG2: environment & physical layers — the 2.4 GHz cell ==\n");
  std::printf("(paper: 'the effect of a high concentration of these devices "
              "needs to be studied')\n");
  table_a_density();
  table_b_channel_plan();
  table_c_ranging();
  table_d_backoff_ablation();
  g_metrics = nullptr;
  benchsup::write_metrics_section("BENCH_metrics.json", "fig2_environment",
                                  telemetry.metrics());
  return 0;
}
