// Sharded stage execution: row-range partitioned Gram / covariance-style
// cross products (tree-reduce merge) and element-wise addition (concat
// merge) versus the unsharded staged path.
//
// The sharded column uses the planner's own decision (max_shards at its
// default, thread budget varied); the unsharded column pins max_shards=1 so
// both run the identical kernels and differ only in the shard lowering. The
// expected shape: at thread budget >= 4 the tree-reduced Gram approaches
// serial / shards (the per-shard SYRK dominates, the O(cols^2 log s) merge
// is noise); at budget 1 the planner refuses to shard and the two columns
// converge. Every BenchJson row carries the executed shard count so the
// perf gate can pair sharded/unsharded variants across baselines.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/exec_context.h"
#include "core/planner.h"
#include "core/rma.h"
#include "matrix/parallel.h"
#include "workload/synthetic.h"

namespace rma::bench {
namespace {

/// Copy of `r` with its key attribute renamed (add/sub require disjoint
/// order schemas between the two arguments).
Relation WithKeyName(const Relation& r, const std::string& key,
                     std::string name) {
  std::vector<Attribute> attrs;
  std::vector<BatPtr> cols;
  for (int i = 0; i < r.schema().num_attributes(); ++i) {
    Attribute a = r.schema().attribute(i);
    if (i == 0) a.name = key;
    attrs.push_back(std::move(a));
    cols.push_back(r.column(i));
  }
  return Relation::Make(Schema::Make(std::move(attrs)).ValueOrDie(),
                        std::move(cols), std::move(name))
      .ValueOrDie();
}

struct Measured {
  double seconds = 0;
  int shards = 1;
};

/// Best-of-N timing of one binary op under `opts`; also reports the shard
/// count the recorded plan executed with.
Measured TimeOp(const RmaOptions& opts, MatrixOp op, const Relation& r,
                const std::vector<std::string>& order_r, const Relation& s,
                const std::vector<std::string>& order_s) {
  Measured m;
  m.seconds = TimeBest(BenchReps(3), [&] {
    ExecContext ctx(opts);
    DoNotOptimize(RmaBinary(&ctx, op, r, order_r, s, order_s).ValueOrDie());
    if (!ctx.plans().empty()) m.shards = ctx.plans().back().shards;
  });
  return m;
}

void AddRow(PaperTable& table, const std::string& label, int budget,
            const Measured& serial, const Measured& sharded,
            const std::string& op, const std::string& shape, int64_t bytes) {
  char speedup[32];
  std::snprintf(speedup, sizeof(speedup), "%.2fx",
                sharded.seconds > 0 ? serial.seconds / sharded.seconds : 0.0);
  table.AddRow({std::to_string(budget), Secs(serial.seconds),
                Secs(sharded.seconds), speedup,
                std::to_string(sharded.shards)});
  const std::string b = std::to_string(budget);
  BenchJson::Record(label + "/threads=" + b + "/unsharded", op, shape,
                    serial.seconds, bytes, "auto", serial.shards);
  BenchJson::Record(label + "/threads=" + b + "/sharded", op, shape,
                    sharded.seconds, bytes, "auto", sharded.shards);
}

void RunGram(int64_t n, int cols) {
  PaperTable table(
      "Sharded Gram matrix (CPD self, tree-reduce merge) vs. unsharded",
      {"thread budget", "unsharded", "sharded", "speedup", "shards"});
  const Relation r = workload::UniformRelation(n, cols, /*seed=*/21, -10.0,
                                               10.0, /*sorted=*/true, "g");
  const std::string shape = std::to_string(n) + "x" + std::to_string(cols);
  const int64_t bytes = n * cols * static_cast<int64_t>(sizeof(double));
  for (int budget : {1, 2, 4}) {
    RmaOptions serial_opts;
    serial_opts.max_threads = budget;
    serial_opts.max_shards = 1;
    RmaOptions shard_opts;
    shard_opts.max_threads = budget;
    const Measured serial =
        TimeOp(serial_opts, MatrixOp::kCpd, r, {"id"}, r, {"id"});
    const Measured sharded =
        TimeOp(shard_opts, MatrixOp::kCpd, r, {"id"}, r, {"id"});
    AddRow(table, "shard/gram", budget, serial, sharded, "cpd-self", shape,
           bytes);
  }
  table.AddNote("hardware threads on this machine: " +
                std::to_string(DefaultThreadCount()) +
                "; at budget 1 the planner refuses to shard and the columns "
                "converge");
  table.Print();
}

void RunCov(int64_t n, int cols) {
  PaperTable table(
      "Sharded covariance-style cross product (CPD r,s) vs. unsharded",
      {"thread budget", "unsharded", "sharded", "speedup", "shards"});
  const Relation r = workload::UniformRelation(n, cols, /*seed=*/22, -10.0,
                                               10.0, /*sorted=*/true, "r");
  const Relation s = workload::UniformRelation(n, cols, /*seed=*/23, -10.0,
                                               10.0, /*sorted=*/true, "s");
  const std::string shape = std::to_string(n) + "x" + std::to_string(cols);
  const int64_t bytes =
      2 * n * cols * static_cast<int64_t>(sizeof(double));
  for (int budget : {1, 4}) {
    RmaOptions serial_opts;
    serial_opts.max_threads = budget;
    serial_opts.max_shards = 1;
    RmaOptions shard_opts;
    shard_opts.max_threads = budget;
    const Measured serial =
        TimeOp(serial_opts, MatrixOp::kCpd, r, {"id"}, s, {"id"});
    const Measured sharded =
        TimeOp(shard_opts, MatrixOp::kCpd, r, {"id"}, s, {"id"});
    AddRow(table, "shard/cov", budget, serial, sharded, "cpd", shape, bytes);
  }
  table.Print();
}

void RunAdd(int64_t n, int cols) {
  PaperTable table(
      "Sharded element-wise addition (concat merge) vs. unsharded",
      {"thread budget", "unsharded", "sharded", "speedup", "shards"});
  const Relation r = workload::UniformRelation(n, cols, /*seed=*/24, -10.0,
                                               10.0, /*sorted=*/true, "r");
  const Relation s = WithKeyName(
      workload::UniformRelation(n, cols, /*seed=*/25, -10.0, 10.0,
                                /*sorted=*/true, "s"),
      "id2", "s");
  const std::string shape = std::to_string(n) + "x" + std::to_string(cols);
  const int64_t bytes =
      2 * n * cols * static_cast<int64_t>(sizeof(double));
  for (int budget : {1, 4}) {
    RmaOptions serial_opts;
    serial_opts.max_threads = budget;
    serial_opts.max_shards = 1;
    RmaOptions shard_opts;
    shard_opts.max_threads = budget;
    const Measured serial =
        TimeOp(serial_opts, MatrixOp::kAdd, r, {"id"}, s, {"id2"});
    const Measured sharded =
        TimeOp(shard_opts, MatrixOp::kAdd, r, {"id"}, s, {"id2"});
    AddRow(table, "shard/add", budget, serial, sharded, "add", shape, bytes);
  }
  table.AddNote("concat-merged results are bit-exact vs. unsharded; the "
                "win is memory-bandwidth bound");
  table.Print();
}

}  // namespace
}  // namespace rma::bench

int main(int argc, char** argv) {
  using namespace rma::bench;
  BenchJson::Init("bench_shard", &argc, argv);
  RunGram(Scaled(400000), /*cols=*/32);
  RunCov(Scaled(300000), /*cols=*/24);
  RunAdd(Scaled(2000000), /*cols=*/8);
  BenchJson::Flush();
  return 0;
}
