// pals_trace_info — inspect a .palst trace file: per-rank computation,
// message/collective counts, load balance, iterations and phases.
// --stats switches to a metric snapshot of the trace (event counts by
// kind, bytes by operation, burst statistics) rendered through the
// pals::obs registry renderer as text or, with --csv, as CSV.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <limits>
#include <map>

#include "analysis/comm_stats.hpp"
#include "analysis/iteration_stats.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "trace/io.hpp"
#include "util/error.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace pals {
namespace {

/// The --stats mode: fill a scoped registry from one pass over the trace
/// and render its snapshot (shared renderer with the pipeline metrics).
obs::MetricsSnapshot trace_stats(const Trace& trace) {
  obs::Registry reg;
  reg.gauge("trace.ranks").set(trace.n_ranks());
  reg.gauge("trace.iterations")
      .set(static_cast<std::int64_t>(trace.iteration_count()));
  reg.gauge("trace.phases")
      .set(static_cast<std::int64_t>(trace.phases().size()));
  obs::Counter& events = reg.counter("trace.events");
  obs::Histogram& burst = reg.histogram(
      "trace.burst_seconds", {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
  obs::Gauge& burst_min = reg.gauge("trace.burst_min_ns");
  obs::Gauge& burst_max = reg.gauge("trace.burst_max_ns");
  obs::Counter& burst_total = reg.counter("trace.burst_total_ns");
  burst_min.set(std::numeric_limits<std::int64_t>::max());
  for (Rank r = 0; r < trace.n_ranks(); ++r) {
    for (const Event& e : trace.events(r)) {
      events.add(1);
      if (const auto* c = std::get_if<ComputeEvent>(&e)) {
        reg.counter("trace.events.compute").add(1);
        burst.observe(c->duration);
        const std::int64_t ns = obs::to_nanos(c->duration);
        burst_min.set(std::min(burst_min.value(), ns));
        burst_max.set(std::max(burst_max.value(), ns));
        burst_total.add(static_cast<std::uint64_t>(ns));
      } else if (const auto* s = std::get_if<SendEvent>(&e)) {
        reg.counter("trace.events.send").add(1);
        reg.counter("trace.bytes.send").add(s->bytes);
      } else if (const auto* is = std::get_if<IsendEvent>(&e)) {
        reg.counter("trace.events.isend").add(1);
        reg.counter("trace.bytes.isend").add(is->bytes);
      } else if (const auto* rc = std::get_if<RecvEvent>(&e)) {
        reg.counter("trace.events.recv").add(1);
        reg.counter("trace.bytes.recv").add(rc->bytes);
      } else if (const auto* ir = std::get_if<IrecvEvent>(&e)) {
        reg.counter("trace.events.irecv").add(1);
        reg.counter("trace.bytes.irecv").add(ir->bytes);
      } else if (std::holds_alternative<WaitEvent>(e)) {
        reg.counter("trace.events.wait").add(1);
      } else if (std::holds_alternative<WaitAllEvent>(e)) {
        reg.counter("trace.events.waitall").add(1);
      } else if (const auto* co = std::get_if<CollectiveEvent>(&e)) {
        reg.counter("trace.events.coll").add(1);
        reg.counter("trace.bytes." + to_string(co->op)).add(co->bytes);
      } else if (std::holds_alternative<MarkerEvent>(e)) {
        reg.counter("trace.events.marker").add(1);
      }
    }
  }
  const std::uint64_t bursts =
      reg.counter("trace.events.compute").value();
  if (bursts == 0)
    burst_min.set(0);
  else
    reg.gauge("trace.burst_mean_ns")
        .set(static_cast<std::int64_t>(burst_total.value() / bursts));
  return reg.snapshot();
}

int run(int argc, char** argv) {
  CliParser cli;
  cli.add_flag("per-rank", "print a per-rank table");
  cli.add_flag("matrix", "print the rank-to-rank traffic matrix");
  cli.add_flag("stats", "print a per-trace metric snapshot instead");
  cli.add_flag("csv", "with --stats: render the snapshot as CSV");
  cli.add_flag("help", "show usage");
  cli.parse(argc, argv);
  if (cli.get_flag("help") || cli.positional().size() != 1) {
    std::cout << "usage: pals_trace_info [--per-rank] [--matrix] "
                 "[--stats [--csv]] <trace.palst>\n";
    return cli.get_flag("help") ? 0 : 2;
  }
  const Trace trace = read_trace_auto(cli.positional().front());

  if (cli.get_flag("stats")) {
    const obs::MetricsSnapshot snapshot = trace_stats(trace);
    std::cout << (cli.get_flag("csv") ? snapshot.to_csv()
                                      : snapshot.to_text());
    return 0;
  }

  std::size_t sends = 0;
  std::size_t recvs = 0;
  std::size_t collectives = 0;
  Bytes p2p_bytes = 0;
  std::map<CollectiveOp, std::size_t> coll_histogram;
  for (Rank r = 0; r < trace.n_ranks(); ++r) {
    for (const Event& e : trace.events(r)) {
      if (const auto* s = std::get_if<SendEvent>(&e)) {
        ++sends;
        p2p_bytes += s->bytes;
      } else if (const auto* is = std::get_if<IsendEvent>(&e)) {
        ++sends;
        p2p_bytes += is->bytes;
      } else if (std::holds_alternative<RecvEvent>(e) ||
                 std::holds_alternative<IrecvEvent>(e)) {
        ++recvs;
      } else if (const auto* c = std::get_if<CollectiveEvent>(&e)) {
        ++collectives;
        ++coll_histogram[c->op];
      }
    }
  }

  const std::vector<Seconds> comp = trace.computation_times();
  const StatsSummary stats = summarize(comp);

  std::cout << "name:          "
            << (trace.name().empty() ? "<unnamed>" : trace.name()) << '\n'
            << "ranks:         " << trace.n_ranks() << '\n'
            << "events:        " << trace.total_events() << '\n'
            << "iterations:    " << trace.iteration_count() << '\n'
            << "phases:        " << trace.phases().size() << '\n'
            << "p2p messages:  " << sends << " sends / " << recvs
            << " recvs, " << p2p_bytes << " bytes\n"
            << "collectives:   " << collectives;
  for (const auto& [op, count] : coll_histogram)
    std::cout << "  " << to_string(op) << "="
              << count / static_cast<std::size_t>(trace.n_ranks());
  std::cout << " (per rank)\n"
            << "compute time:  mean " << format_fixed(stats.mean * 1e3, 3)
            << " ms, min " << format_fixed(stats.min * 1e3, 3) << ", max "
            << format_fixed(stats.max * 1e3, 3) << '\n'
            << "load balance:  " << format_percent(load_balance(comp))
            << '\n';

  if (trace.iteration_count() > 0) {
    const IterationStats iteration_stats = analyze_iterations(trace);
    std::cout << "iteration LB:  mean "
              << format_percent(iteration_stats.mean_iteration_load_balance)
              << ", min "
              << format_percent(iteration_stats.min_iteration_load_balance)
              << "\ndrift index:   "
              << format_fixed(iteration_stats.drift_index, 3)
              << (iteration_stats.static_assignment_sufficient()
                      ? "  (static DVFS assignment sufficient)"
                      : "  (imbalance moves: consider the dynamic runtime)")
              << '\n';
  }

  if (cli.get_flag("matrix")) {
    const CommStats comm = analyze_communication(trace);
    std::cout << "traffic matrix (digits proportional to bytes):\n"
              << comm.render_matrix()
              << "channel concentration: "
              << format_percent(comm.channel_concentration())
              << " (1 = single-neighbour patterns, low = all-to-all)\n";
  }

  if (cli.get_flag("per-rank")) {
    TextTable table({"rank", "compute (ms)", "share of max"});
    for (Rank r = 0; r < trace.n_ranks(); ++r) {
      table.add_row({std::to_string(r),
                     format_fixed(comp[static_cast<std::size_t>(r)] * 1e3, 3),
                     format_percent(comp[static_cast<std::size_t>(r)] /
                                    stats.max)});
    }
    table.print(std::cout);
  }
  return 0;
}

}  // namespace
}  // namespace pals

int main(int argc, char** argv) {
  try {
    return pals::run(argc, argv);
  } catch (const pals::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
