// The three workloads and the layer probes of the traced run. Every workload
// drives the program only through its public entry points:
// sql::Database::Execute / ExecuteOn (gram_qr), client::Client against a
// loopback server::Server (trips_server), and sql::Database::Open over paged
// storage (ooc_mixed).
#ifndef RMABENCH_WORKLOADS_H_
#define RMABENCH_WORKLOADS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "client/client.h"
#include "harness.h"
#include "server/server.h"
#include "sql/database.h"
#include "storage/buffer_pool.h"
#include "util/status.h"
#include "workload/bixi.h"

namespace rmabench {

/// Shape of the matrix tables of gram_qr and ooc_mixed.
inline constexpr int64_t kMatrixRows = 200000;
inline constexpr int kMatrixCols = 16;
/// Size of the generated BIXI data.
inline constexpr int64_t kTrips = 200000;
inline constexpr int kStations = 600;

/// Warm-up passes over each workload's statement kinds: enough for the
/// caches and the allocator to reach the state the timed loop runs in.
inline constexpr int kWarmupPasses = 3;

/// One statement and the check its result must pass.
struct Statement {
  std::string sql;
  std::function<std::unique_ptr<ResultCheck>()> check;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Set-up, in two steps whose summed wall time is setup_s. Called
  /// several times; each call replaces the previous instance.
  /// Generate drops the previous instance and generates the inputs; it
  /// starts no threads that outlive it.
  virtual void Generate() = 0;
  /// Builds the system under test from the inputs: register or persist,
  /// start the server and connect.
  virtual rma::Status Build() = 0;
  /// After the last set-up: computes the references and notes the digest
  /// of the generated tables and the statement stream.
  virtual rma::Status Prepare(Report* report) = 0;
  /// Untimed passes over every statement kind, so caches fill first.
  virtual LoopResult Warmup() = 0;
  /// The closed loop for `seconds`. With a tracer it records spans and the
  /// per-layer samples of the stream.
  virtual LoopResult Run(double seconds, Tracer* tracer, Samples* samples) = 0;
  /// Traced run only: the layer probes for the remaining per-layer metrics.
  virtual bool Probe(Tracer* tracer, Samples* samples) = 0;
  /// Ends the run (the durability check for ooc_mixed); false when a final
  /// check fails.
  virtual bool Finish(Report* report) = 0;
  /// The database the statements run against (its query cache is diffed).
  virtual rma::sql::Database* database() = 0;
};

std::unique_ptr<Workload> MakeGramQr(const Args& args);
std::unique_ptr<Workload> MakeTripsServer(const Args& args);
std::unique_ptr<Workload> MakeOocMixed(const Args& args);

// --- shared pieces -------------------------------------------------------------

/// References of the Gram / OLS / QR statements over a table m(id, a0..ak-1)
/// and a target v(id, a0), computed with plain loops (rows indexed by id).
struct MatrixReference {
  int64_t rows = 0;
  int cols = 0;
  std::vector<double> x;     ///< row-major, row = id
  std::vector<double> gram;  ///< X^T X
  std::vector<double> beta;  ///< (X^T X)^{-1} X^T y
  std::vector<double> chol;  ///< R with X^T X = R^T R
  std::vector<double> col_sums;
};
rma::Result<MatrixReference> BuildMatrixReference(const rma::Relation& m,
                                                  const rma::Relation* v);
/// Labels a0..a{k-1}.
std::vector<std::string> ColumnLabels(int k);
/// The expected CPD(m BY id, m BY id) result.
LabelledMatrix GramResult(const MatrixReference& ref);
/// The expected MMU(INV(CPD(m, m)), CPD(m, v)) result (v's column is a0).
LabelledMatrix OlsResult(const MatrixReference& ref);

/// Runs one statement in process, timing it as a client would see it, and
/// checks the result. Untraced it calls Database::Execute; traced it parses
/// the text separately (sql.parse_ms) and calls ExecuteOn with a fresh
/// context borrowing the database's cache, recording the stage times.
/// Returns false when the statement fails or its result is wrong.
bool RunInProcess(rma::sql::Database* db, const Statement& stmt,
                  Tracer* tracer, Samples* samples, int tid,
                  double* latency_ms, rma::Relation* result = nullptr);

/// Runs one statement through `client`, checking the streamed batches as
/// they arrive; the latency runs from send to last row. Traced, it also
/// times sql::Parse and records the send -> first batch and first batch ->
/// last row spans (server.first_batch_ms, server.stream_ms).
bool RunThroughClient(rma::client::Client* client, const Statement& stmt,
                      Tracer* tracer, Samples* samples, int tid,
                      double* latency_ms);

/// Records the per-stage times of one ExecuteOn call as core.* samples.
void RecordStages(const rma::RmaStats& stats, double execute_ms,
                  Samples* samples);

/// The query-cache counters as core.* values, from two snapshots.
void RecordCacheDelta(const rma::QueryCache::Counters& before,
                      const rma::QueryCache::Counters& after,
                      Samples* samples);

/// The buffer-pool counters as storage.pool_* values, from two snapshots.
void RecordPoolDelta(const rma::BufferPoolStats& before,
                     const rma::BufferPoolStats& after, Samples* samples);

// Layer probes of the traced run. Every traced run prints every per-layer
// metric, so each workload probes every layer, always on its own inputs: the
// layers its statements exercise (README.md lists them) describe its
// traffic, the others what its inputs cost in that layer.

/// matrix.*: blas::Syrk and HouseholderQr on a DenseMatrix of `cols` of `r`.
bool ProbeMatrix(const rma::Relation& r, const std::vector<std::string>& cols,
                 Tracer* tracer, Samples* samples);

/// rel.*: replays the Trips preparation with rel::Aggregate, HashJoin and
/// Project, checks its row count and distance sum, and returns the per-trip
/// (id, dist, duration) relation in `prepared`.
bool ProbeRel(const rma::workload::BixiData& data, Tracer* tracer,
              Samples* samples, rma::Relation* prepared);
/// rel.*: the key alignment behind CPD(m BY id, v BY id) with the same
/// operators: m's column sums, m joined with v on id, projected; checked.
bool ProbeRel(const rma::Relation& m, const rma::Relation& v, Tracer* tracer,
              Samples* samples);

/// storage.fault_scan_ms: pinned full scans (PinData / ContiguousDoubleData
/// / UnpinData) of the double columns of the paged table `paged`; each
/// column's sum must equal that of `reference`, bit for bit.
bool ProbeScan(const rma::Relation& paged, const rma::Relation& reference,
               Tracer* tracer, Samples* samples);

/// storage.*: saves `table` into a fresh paged store under `dir` with a
/// pool of half the table (save_ms, bytes_written, write_amp, space_amp),
/// then ProbeScan of the saved table and the pool's counters.
bool ProbeStorage(const rma::Relation& table, const std::string& dir,
                  Tracer* tracer, Samples* samples);

/// The server's counters as server.* values, from two snapshots.
void RecordServerDelta(const rma::server::ServerStats& before,
                       const rma::server::ServerStats& after,
                       Samples* samples);

/// server.overhead_ms: each statement runs through `client` and then in
/// process on `in_process`; the overhead is the difference. Both runs are
/// traced and join the stream's samples.
bool ProbeOverhead(rma::client::Client* client,
                   rma::sql::Database* in_process,
                   const std::vector<Statement>& stmts, Tracer* tracer,
                   Samples* samples);

/// server.*: ProbeOverhead through a fresh loopback server on `db`, and
/// that server's counters.
bool ProbeServer(rma::sql::Database* db, const std::vector<Statement>& stmts,
                 Tracer* tracer, Samples* samples);

/// Deadline helper for the closed loops.
inline Clock::time_point Deadline(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

}  // namespace rmabench

#endif  // RMABENCH_WORKLOADS_H_
