// The end-to-end benchmark of relational matrix statements.
//
//   rma_e2e_bench --workload gram_qr|trips_server|ooc_mixed --seed N
//                 --seconds S --trace 0|1 [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics of an untraced closed-loop run;
// --trace 1 prints the per-layer metrics of a run that is half untraced and
// half traced (their throughput ratio is bench.trace_overhead_frac) and
// writes the spans as Chrome trace-event JSON under the work directory. The
// last line of standard output is one JSON object; the exit code is
// non-zero when any result is wrong. README.md describes every metric.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace rmabench {
namespace {

/// Set-ups per untraced run, half before and half after the timed loop;
/// setup_s is their median.
constexpr int kSetups = 16;

enum class Agg { kMean, kValue };

struct LayerMetric {
  const char* name;
  const char* unit;
  Agg agg;
};

/// Every per-layer metric, in BENCHMARK.json order. Stream times are means
/// per statement (they add up along a statement); the probes set medians of
/// their repetitions, counters and ratios as single values.
constexpr LayerMetric kLayerMetrics[] = {
    {"sql.parse_ms", "ms", Agg::kMean},
    {"core.plan_hit_ratio", "ratio", Agg::kValue},
    {"core.prepared_hit_ratio", "ratio", Agg::kValue},
    {"core.cache_evictions", "count", Agg::kValue},
    {"core.sort_ms", "ms", Agg::kMean},
    {"core.gather_ms", "ms", Agg::kMean},
    {"core.kernel_ms", "ms", Agg::kMean},
    {"core.scatter_ms", "ms", Agg::kMean},
    {"core.merge_ms", "ms", Agg::kMean},
    {"core.morph_ms", "ms", Agg::kMean},
    {"core.stage_sum_over_wall", "ratio", Agg::kValue},
    {"rel.aggregate_ms", "ms", Agg::kValue},
    {"rel.join_ms", "ms", Agg::kValue},
    {"rel.prep_ms", "ms", Agg::kValue},
    {"matrix.syrk_ms", "ms", Agg::kValue},
    {"matrix.syrk_gflops", "GFLOP/s", Agg::kValue},
    {"matrix.qr_ms", "ms", Agg::kValue},
    {"matrix.qr_gflops", "GFLOP/s", Agg::kValue},
    {"storage.pool_hit_ratio", "ratio", Agg::kValue},
    {"storage.pool_misses", "count", Agg::kValue},
    {"storage.pool_evictions", "count", Agg::kValue},
    {"storage.pool_writebacks", "count", Agg::kValue},
    {"storage.pool_overcommits", "count", Agg::kValue},
    {"storage.fault_scan_ms", "ms", Agg::kValue},
    {"storage.save_ms", "ms", Agg::kValue},
    {"storage.bytes_written", "bytes", Agg::kValue},
    {"storage.write_amp", "ratio", Agg::kValue},
    {"storage.space_amp", "ratio", Agg::kValue},
    {"server.first_batch_ms", "ms", Agg::kMean},
    {"server.stream_ms", "ms", Agg::kMean},
    {"server.overhead_ms", "ms", Agg::kMean},
    {"server.admission_waits", "count", Agg::kValue},
    {"server.peak_in_flight", "count", Agg::kValue},
    {"server.rows_streamed", "count", Agg::kValue},
    {"bench.trace_overhead_frac", "ratio", Agg::kValue},
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "rma_e2e_bench: %s\nusage: rma_e2e_bench --workload "
               "gram_qr|trips_server|ooc_mixed --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "gram_qr") return MakeGramQr(args);
  if (args.workload == "trips_server") return MakeTripsServer(args);
  if (args.workload == "ooc_mixed") return MakeOocMixed(args);
  Usage(("unknown workload " + args.workload).c_str());
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "rma_e2e_bench: %s\n", what.c_str());
  return 1;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) return Fail("cannot create " + args.work_dir);
  std::unique_ptr<Workload> w = MakeWorkload(args);
  Report report;

  std::vector<double> setup_s;
  auto set_up = [&](int times) {
    for (int i = 0; i < times; ++i) {
      const Clock::time_point t0 = Clock::now();
      w->Generate();
      rma::Status st = w->Build();
      setup_s.push_back(MsSince(t0) / 1e3);
      if (!st.ok()) return st;
    }
    return rma::Status::OK();
  };
  rma::Status st = set_up(args.trace ? 1 : kSetups / 2);
  if (!st.ok()) return Fail("set-up failed: " + st.ToString());
  st = w->Prepare(&report);
  if (!st.ok()) return Fail("references failed: " + st.ToString());
  const LoopResult warm = w->Warmup();

  LoopResult run;
  bool correct = true;
  if (!args.trace) {
    run = w->Run(args.seconds, nullptr, nullptr);
    correct = w->Finish(&report);
    const double peak_rss_mb = PeakRssMb();
    // The vCPUs of a shared host change speed over seconds, so the other
    // half of the set-ups runs after the timed loop: the median then spans
    // the whole run rather than the few seconds before it.
    st = set_up(kSetups / 2);
    if (!st.ok()) return Fail("set-up failed: " + st.ToString());
    const Tail tail = TailLatency(run.latencies_ms);
    report.Note(Format("timed loop: %" PRId64 " statements in %.3f s",
                       run.attempted, run.wall_s));
    report.Note(Format("latency_tail_ms is p%g with %" PRId64
                       " of %zu samples beyond it",
                       tail.percentile, tail.beyond, run.latencies_ms.size()));
    std::string setups;
    for (double s : setup_s) setups += Format(" %.4f", s);
    report.Note("set-up times (s):" + setups);
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("stmt_per_s", run.StatementsPerSecond(), "1/s");
    report.Add("latency_p50_ms", Median(run.latencies_ms), "ms");
    report.Add("latency_tail_ms", tail.value_ms, "ms");
    report.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    Tracer tracer;
    Samples samples;
    run = w->Run(args.seconds / 2, nullptr, nullptr);
    const rma::QueryCache::Counters c0 =
        w->database()->query_cache()->counters();
    const LoopResult traced = w->Run(args.seconds / 2, &tracer, &samples);
    RecordCacheDelta(c0, w->database()->query_cache()->counters(), &samples);
    samples.Set("bench.trace_overhead_frac",
                1.0 - traced.StatementsPerSecond() / run.StatementsPerSecond());
    run.attempted += traced.attempted;
    run.failed += traced.failed;
    correct = w->Probe(&tracer, &samples);
    correct = w->Finish(&report) && correct;
    // Stage seconds summed over the statements' ExecuteOn wall time; above
    // 1 when stages overlap (shards timed separately).
    samples.Set("core.stage_sum_over_wall",
                samples.Mean("core.stage_total_ms") /
                    samples.Mean("core.execute_ms"));
    const std::string trace_path = Format(
        "%s/trace-%s-seed%" PRIu64 ".json", args.work_dir.c_str(),
        args.workload.c_str(), args.seed);
    if (!tracer.Write(trace_path)) return Fail("cannot write " + trace_path);
    report.Note(Format("trace: %zu spans written to %s", tracer.size(),
                       trace_path.c_str()));
    for (const LayerMetric& m : kLayerMetrics) {
      if (!samples.Has(m.name)) return Fail(std::string("no value for ") + m.name);
      const double v = m.agg == Agg::kMean ? samples.Mean(m.name)
                                           : samples.Value(m.name);
      report.Add(m.name, v, m.unit);
    }
  }
  // Warm-up statements are checked like the timed ones.
  run.attempted += warm.attempted;
  run.failed += warm.failed;
  report.Note(Format("%s seed %" PRIu64 ": %" PRId64
                     " statements checked, %" PRId64
                     " failed (error_rate %.6f)",
                     args.workload.c_str(), args.seed, run.attempted,
                     run.failed,
                     static_cast<double>(run.failed) /
                         static_cast<double>(std::max<int64_t>(
                             run.attempted, 1))));
  correct = correct && run.failed == 0;
  report.Print(correct, run.attempted, run.failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rmabench

int main(int argc, char** argv) { return rmabench::Main(argc, argv); }
