// Pieces shared by the workloads: the matrix references, the in-process
// statement runner, and the layer probes of the traced run.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <utility>

#include "client/client.h"
#include "core/exec_context.h"
#include "matrix/blas.h"
#include "matrix/dense_matrix.h"
#include "matrix/qr.h"
#include "rel/operators.h"
#include "server/server.h"
#include "sql/parser.h"
#include "storage/paged_store.h"
#include "workloads.h"

namespace rmabench {

using rma::Relation;
using rma::Status;
using rma::rel::Expr;

// --- matrix references ----------------------------------------------------------

std::vector<std::string> ColumnLabels(int k) {
  std::vector<std::string> out;
  for (int j = 0; j < k; ++j) out.push_back("a" + std::to_string(j));
  return out;
}

rma::Result<MatrixReference> BuildMatrixReference(const Relation& m,
                                                  const Relation* v) {
  MatrixReference ref;
  ref.rows = m.num_rows();
  ref.cols = m.num_columns() - 1;
  const size_t k = static_cast<size_t>(ref.cols);
  const std::vector<double> ids = DoubleColumn(m, "id");
  ref.x.assign(static_cast<size_t>(ref.rows) * k, 0.0);
  for (size_t j = 0; j < k; ++j) {
    const std::vector<double> col = DoubleColumn(m, "a" + std::to_string(j));
    for (size_t i = 0; i < col.size(); ++i) {
      const int64_t id = static_cast<int64_t>(ids[i]);
      if (id < 0 || id >= ref.rows) {
        return Status::Invalid("ids are not a permutation of 0..n-1");
      }
      ref.x[static_cast<size_t>(id) * k + j] = col[i];
    }
  }
  ref.gram = Gram(ref.x, ref.rows, ref.cols);
  if (!Cholesky(ref.gram, ref.cols, &ref.chol)) {
    return Status::Invalid("reference Gram matrix is not positive definite");
  }
  ref.col_sums.assign(k, 0.0);
  for (int64_t i = 0; i < ref.rows; ++i) {
    for (size_t j = 0; j < k; ++j) {
      ref.col_sums[j] += ref.x[static_cast<size_t>(i) * k + j];
    }
  }
  if (v != nullptr) {
    const std::vector<double> vid = DoubleColumn(*v, "id");
    const std::vector<double> vy = DoubleColumn(*v, "a0");
    std::vector<double> y(static_cast<size_t>(ref.rows), 0.0);
    for (size_t i = 0; i < vid.size(); ++i) {
      y[static_cast<size_t>(vid[i])] = vy[i];
    }
    ref.beta = CholeskySolve(ref.chol, ref.cols,
                             CrossVec(ref.x, y, ref.rows, ref.cols));
  }
  return ref;
}

LabelledMatrix GramResult(const MatrixReference& ref) {
  LabelledMatrix want;
  want.row_labels = ColumnLabels(ref.cols);
  want.col_names = want.row_labels;
  want.values = ref.gram;
  return want;
}

LabelledMatrix OlsResult(const MatrixReference& ref) {
  LabelledMatrix want;
  // INV keeps its argument's row origins: the C values in BY-C (string)
  // order. So row i of the result, in that order, carries coefficient i of
  // the schema order, and with ten or more columns "a10" sorts before "a2".
  want.row_labels = ColumnLabels(ref.cols);
  std::sort(want.row_labels.begin(), want.row_labels.end());
  want.col_names = {"a0"};
  want.values = ref.beta;
  want.rel_tol = 1e-7;
  return want;
}

// --- in-process statements ------------------------------------------------------

void RecordStages(const rma::RmaStats& s, double execute_ms,
                  Samples* samples) {
  samples->Add("core.sort_ms", s.sort_seconds * 1e3);
  samples->Add("core.gather_ms", s.transform_in_seconds * 1e3);
  samples->Add("core.kernel_ms", s.compute_seconds * 1e3);
  samples->Add("core.scatter_ms", s.transform_out_seconds * 1e3);
  samples->Add("core.merge_ms", s.merge_seconds * 1e3);
  samples->Add("core.morph_ms", s.morph_seconds * 1e3);
  samples->Add("core.stage_total_ms", s.TotalSeconds() * 1e3);
  samples->Add("core.execute_ms", execute_ms);
}

namespace {

/// Reports a failed or wrong statement; true when the statement passed.
bool Verify(const Statement& stmt, const Status& status,
            const ResultCheck& check) {
  if (!status.ok()) {
    ReportFailure(stmt.sql, status.ToString());
    return false;
  }
  if (!check.Passed()) {
    ReportFailure(stmt.sql, "wrong result");
    return false;
  }
  return true;
}

/// Traced runs time sql::Parse on the text on its own (sql.parse_ms).
bool TimeParse(const Statement& stmt, Tracer* tracer, Samples* samples,
               uint64_t id, int tid, uint64_t parent) {
  Span parse(tracer, "sql", "sql::Parse", id, tid, parent);
  const bool parsed = rma::sql::Parse(stmt.sql).ok();
  samples->Add("sql.parse_ms", parse.End());
  if (!parsed) ReportFailure(stmt.sql, "sql::Parse failed");
  return parsed;
}

}  // namespace

bool RunInProcess(rma::sql::Database* db, const Statement& stmt,
                  Tracer* tracer, Samples* samples, int tid,
                  double* latency_ms, Relation* result) {
  std::unique_ptr<ResultCheck> check = stmt.check();
  if (tracer == nullptr) {
    const Clock::time_point t0 = Clock::now();
    rma::Result<Relation> r = db->Execute(stmt.sql);
    *latency_ms = MsSince(t0);
    if (r.ok()) check->Consume(*r);
    if (!Verify(stmt, r.status(), *check)) return false;
    if (result != nullptr) *result = std::move(*r);
    return true;
  }
  const uint64_t id = tracer->NextStatement();
  Span root(tracer, "bench", "statement", id, tid);
  if (!TimeParse(stmt, tracer, samples, id, tid, root.id())) return false;
  rma::ExecContext ctx(db->rma_options, db->query_cache());
  Span exec(tracer, "core", "Database::ExecuteOn", id, tid, root.id());
  rma::Result<Relation> r = db->ExecuteOn(stmt.sql, &ctx);
  *latency_ms = exec.End();
  if (r.ok()) RecordStages(ctx.totals(), *latency_ms, samples);
  Span verify(tracer, "bench", "check", id, tid, root.id());
  if (r.ok()) check->Consume(*r);
  if (!Verify(stmt, r.status(), *check)) return false;
  if (result != nullptr) *result = std::move(*r);
  return true;
}

bool RunThroughClient(rma::client::Client* client, const Statement& stmt,
                      Tracer* tracer, Samples* samples, int tid,
                      double* latency_ms) {
  std::unique_ptr<ResultCheck> check = stmt.check();
  const uint64_t id = tracer != nullptr ? tracer->NextStatement() : 0;
  Span root(tracer, "bench", "statement", id, tid);
  if (tracer != nullptr &&
      !TimeParse(stmt, tracer, samples, id, tid, root.id())) {
    return false;
  }
  Span exec(tracer, "server", "Client::ExecuteStreaming", id, tid,
            root.id());
  Clock::time_point first{};
  const Clock::time_point t0 = Clock::now();
  auto r = client->ExecuteStreaming(
      stmt.sql, [&](const Relation& batch) -> Status {
        if (first == Clock::time_point{}) first = Clock::now();
        check->Consume(batch);
        return Status::OK();
      });
  const Clock::time_point t1 = Clock::now();
  exec.End();
  *latency_ms = MsBetween(t0, t1);
  if (first == Clock::time_point{}) first = t1;
  if (tracer != nullptr) {
    tracer->Add(tracer->NextSpanId(), exec.id(), id, tid, "server",
                "first batch", t0, first);
    tracer->Add(tracer->NextSpanId(), exec.id(), id, tid, "server", "stream",
                first, t1);
    samples->Add("server.first_batch_ms", MsBetween(t0, first));
    samples->Add("server.stream_ms", MsBetween(first, t1));
  }
  return Verify(stmt, r.status(), *check);
}

void RecordCacheDelta(const rma::QueryCache::Counters& b,
                      const rma::QueryCache::Counters& a, Samples* samples) {
  auto ratio = [](int64_t hits, int64_t misses) {
    return hits + misses > 0 ? static_cast<double>(hits) / (hits + misses)
                             : 0.0;
  };
  samples->Set("core.plan_hit_ratio",
               ratio(a.plan_hits - b.plan_hits, a.plan_misses - b.plan_misses));
  samples->Set("core.prepared_hit_ratio",
               ratio(a.prepared_hits - b.prepared_hits,
                     a.prepared_misses - b.prepared_misses));
  samples->Set("core.cache_evictions",
               static_cast<double>(a.evictions - b.evictions));
}

void RecordPoolDelta(const rma::BufferPoolStats& b,
                     const rma::BufferPoolStats& a, Samples* samples) {
  const int64_t hits = a.hits - b.hits;
  const int64_t misses = a.misses - b.misses;
  samples->Set("storage.pool_hit_ratio",
               hits + misses > 0 ? static_cast<double>(hits) / (hits + misses)
                                 : 0.0);
  samples->Set("storage.pool_misses", static_cast<double>(misses));
  samples->Set("storage.pool_evictions",
               static_cast<double>(a.evictions - b.evictions));
  samples->Set("storage.pool_writebacks",
               static_cast<double>(a.writebacks - b.writebacks));
  samples->Set("storage.pool_overcommits",
               static_cast<double>(a.overcommits - b.overcommits));
}

// --- matrix probe -----------------------------------------------------------------

bool ProbeMatrix(const Relation& r, const std::vector<std::string>& cols,
                 Tracer* tracer, Samples* samples) {
  const int64_t n = r.num_rows();
  const int k = static_cast<int>(cols.size());
  rma::DenseMatrix a(n, k);
  double sum_sq = 0;  // trace(A^T A), the Syrk result's check
  for (int j = 0; j < k; ++j) {
    const std::vector<double> col =
        DoubleColumn(r, cols[static_cast<size_t>(j)]);
    if (static_cast<int64_t>(col.size()) != n) return false;
    for (int64_t i = 0; i < n; ++i) {
      a(i, j) = col[static_cast<size_t>(i)];
      sum_sq += col[static_cast<size_t>(i)] * col[static_cast<size_t>(i)];
    }
  }
  const double nd = static_cast<double>(n), kd = static_cast<double>(k);
  bool ok = true;
  std::vector<double> syrk_ms, qr_ms;
  for (int rep = 0; rep < 5; ++rep) {
    Span span(tracer, "matrix", "blas::Syrk", 0, 0);
    const rma::DenseMatrix g = rma::blas::Syrk(a);
    syrk_ms.push_back(span.End());
    double trace = 0;
    for (int j = 0; j < k; ++j) trace += g(j, j);
    ok = ok && std::fabs(trace - sum_sq) <= 1e-9 * sum_sq;
  }
  for (int rep = 0; rep < 3; ++rep) {
    rma::DenseMatrix q, r;
    Span span(tracer, "matrix", "HouseholderQr", 0, 0);
    const bool factored = rma::HouseholderQr(a, &q, &r).ok();
    qr_ms.push_back(span.End());
    // Q^T Q = I on the first column and R_00 = |a_0|.
    double q0 = 0, a0 = 0;
    for (int64_t i = 0; factored && i < n; ++i) {
      q0 += q(i, 0) * q(i, 0);
      a0 += a(i, 0) * a(i, 0);
    }
    ok = ok && factored && std::fabs(q0 - 1.0) <= 1e-9 &&
         std::fabs(r(0, 0) - std::sqrt(a0)) <= 1e-9 * std::sqrt(a0);
  }
  const double syrk = Median(syrk_ms), qr = Median(qr_ms);
  samples->Set("matrix.syrk_ms", syrk);
  // Syrk: k(k+1)/2 dot products of length n, two flops per term.
  samples->Set("matrix.syrk_gflops", nd * kd * (kd + 1) / (syrk * 1e6));
  samples->Set("matrix.qr_ms", qr);
  // Householder R (2nk^2 - 2k^3/3) plus forming the thin Q (as many again).
  samples->Set("matrix.qr_gflops",
               (4 * nd * kd * kd - 4 * kd * kd * kd / 3) / (qr * 1e6));
  return ok;
}

// --- rel probes --------------------------------------------------------------------

namespace {

rma::rel::ExprPtr DistExpr() {
  auto dy = Expr::Binary("*", Expr::Binary("-", Expr::Column("lat"),
                                           Expr::Column("lat1")),
                         Expr::LiteralDouble(111.0));
  auto dx = Expr::Binary("*", Expr::Binary("-", Expr::Column("lon"),
                                           Expr::Column("lon1")),
                         Expr::LiteralDouble(78.0));
  return Expr::Call("SQRT", {Expr::Binary("+", Expr::Binary("*", dy, dy),
                                          Expr::Binary("*", dx, dx))});
}

struct RelTimes {
  double aggregate_ms = 0, join_ms = 0, prep_ms = 0;
};

/// The Trips preparation of Fig. 15 as relational operators; returns the
/// per-trip (id, dist, duration) relation.
rma::Result<Relation> TripsPrep(const rma::workload::BixiData& data,
                                int64_t min_trips, Tracer* tracer,
                                RelTimes* t) {
  Span all(tracer, "rel", "trips prep", 0, 0);
  Clock::time_point t0 = Clock::now();
  RMA_ASSIGN_OR_RETURN(
      Relation agg, rma::rel::Aggregate(data.trips,
                                        {"start_station", "end_station"},
                                        {{"COUNT", "", "n"}}));
  t->aggregate_ms = MsSince(t0);
  RMA_ASSIGN_OR_RETURN(
      Relation pop,
      rma::rel::Select(agg, Expr::Binary(">=", Expr::Column("n"),
                                         Expr::LiteralInt(min_trips))));
  t0 = Clock::now();
  RMA_ASSIGN_OR_RETURN(Relation j1, rma::rel::HashJoin(pop, data.stations,
                                                       {"start_station"},
                                                       {"code"}));
  t->join_ms = MsSince(t0);
  RMA_ASSIGN_OR_RETURN(
      Relation j1p,
      rma::rel::Project(j1, {{Expr::Column("start_station"), "start_station"},
                             {Expr::Column("end_station"), "end_station"},
                             {Expr::Column("lat"), "lat1"},
                             {Expr::Column("lon"), "lon1"}}));
  t0 = Clock::now();
  RMA_ASSIGN_OR_RETURN(Relation j2, rma::rel::HashJoin(j1p, data.stations,
                                                       {"end_station"},
                                                       {"code"}));
  t->join_ms += MsSince(t0);
  RMA_ASSIGN_OR_RETURN(
      Relation pairs,
      rma::rel::Project(j2, {{Expr::Column("start_station"), "start_station"},
                             {Expr::Column("end_station"), "end_station"},
                             {DistExpr(), "dist"}}));
  t0 = Clock::now();
  RMA_ASSIGN_OR_RETURN(
      Relation trips_d,
      rma::rel::HashJoin(data.trips, pairs, {"start_station", "end_station"},
                         {"start_station", "end_station"}));
  t->join_ms += MsSince(t0);
  RMA_ASSIGN_OR_RETURN(
      Relation out,
      rma::rel::Project(trips_d, {{Expr::Column("id"), "id"},
                                  {Expr::Column("dist"), "dist"},
                                  {Expr::Column("duration"), "duration"}}));
  t->prep_ms = all.End();
  return out;
}

/// The key alignment behind CPD(m BY id, v BY id) as relational operators:
/// m's column sums (into `sums`), and m joined with v on id, projected to
/// (id, a0.., y), which it returns.
rma::Result<Relation> KeyedPrep(const Relation& m, const Relation& v,
                                Tracer* tracer, RelTimes* t,
                                std::vector<double>* sums) {
  Span all(tracer, "rel", "keyed prep", 0, 0);
  const std::vector<std::string> cols = ColumnLabels(m.num_columns() - 1);
  std::vector<rma::rel::AggSpec> specs;
  for (const std::string& c : cols) specs.push_back({"SUM", c, c});
  Clock::time_point t0 = Clock::now();
  RMA_ASSIGN_OR_RETURN(Relation agg, rma::rel::Aggregate(m, {}, specs));
  t->aggregate_ms = MsSince(t0);
  t0 = Clock::now();
  // v's columns come out of the join as id_2 and a0_2.
  RMA_ASSIGN_OR_RETURN(Relation joined,
                       rma::rel::HashJoin(m, v, {"id"}, {"id"}));
  t->join_ms = MsSince(t0);
  std::vector<rma::rel::ProjectItem> items = {{Expr::Column("id"), "id"}};
  for (const std::string& c : cols) items.push_back({Expr::Column(c), c});
  items.push_back({Expr::Column("a0_2"), "y"});
  RMA_ASSIGN_OR_RETURN(Relation out, rma::rel::Project(joined, items));
  t->prep_ms = all.End();
  sums->clear();
  for (const std::string& c : cols) {
    const std::vector<double> s = DoubleColumn(agg, c);
    sums->push_back(s.size() == 1 ? s[0] : NAN);
  }
  return out;
}

void SetRelTimes(const std::vector<RelTimes>& reps, Samples* samples) {
  std::vector<double> agg, join, prep;
  for (const RelTimes& t : reps) {
    agg.push_back(t.aggregate_ms);
    join.push_back(t.join_ms);
    prep.push_back(t.prep_ms);
  }
  samples->Set("rel.aggregate_ms", Median(agg));
  samples->Set("rel.join_ms", Median(join));
  samples->Set("rel.prep_ms", Median(prep));
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

bool Near(double got, double want, double rel_tol) {
  return std::fabs(got - want) <= rel_tol * std::fabs(want);
}

}  // namespace

bool ProbeRel(const rma::workload::BixiData& data, Tracer* tracer,
              Samples* samples, Relation* prepared) {
  constexpr int64_t kMinTrips = 50;
  // Reference: trips on station pairs with at least kMinTrips trips, and
  // the sum of their distances, from plain loops over the generated data.
  const std::vector<double> s = DoubleColumn(data.trips, "start_station");
  const std::vector<double> e = DoubleColumn(data.trips, "end_station");
  std::map<std::pair<int64_t, int64_t>, int64_t> pair_trips;
  for (size_t i = 0; i < s.size(); ++i) {
    ++pair_trips[{static_cast<int64_t>(s[i]), static_cast<int64_t>(e[i])}];
  }
  const std::vector<double> code = DoubleColumn(data.stations, "code");
  const std::vector<double> lat = DoubleColumn(data.stations, "lat");
  const std::vector<double> lon = DoubleColumn(data.stations, "lon");
  std::map<int64_t, size_t> station;
  for (size_t i = 0; i < code.size(); ++i) {
    station[static_cast<int64_t>(code[i])] = i;
  }
  int64_t want_rows = 0;
  double want_dist = 0;
  for (const auto& [pair, n] : pair_trips) {
    if (n < kMinTrips) continue;
    const size_t a = station.at(pair.first), b = station.at(pair.second);
    const double dy = (lat[b] - lat[a]) * 111.0;
    const double dx = (lon[b] - lon[a]) * 78.0;
    want_rows += n;
    want_dist += static_cast<double>(n) * std::sqrt(dy * dy + dx * dx);
  }

  std::vector<RelTimes> reps(3);
  bool ok = true;
  for (RelTimes& t : reps) {
    rma::Result<Relation> r = TripsPrep(data, kMinTrips, tracer, &t);
    if (!r.ok()) return false;
    ok = ok && r->num_rows() == want_rows &&
         Near(Sum(DoubleColumn(*r, "dist")), want_dist, 1e-9);
    *prepared = std::move(*r);
  }
  SetRelTimes(reps, samples);
  return ok;
}

bool ProbeRel(const Relation& m, const Relation& v, Tracer* tracer,
              Samples* samples) {
  const std::vector<std::string> cols = ColumnLabels(m.num_columns() - 1);
  std::vector<double> want_sums;
  for (const std::string& c : cols) {
    want_sums.push_back(Sum(DoubleColumn(m, c)));
  }
  const double want_y = Sum(DoubleColumn(v, "a0"));

  std::vector<RelTimes> reps(3);
  bool ok = true;
  for (RelTimes& t : reps) {
    std::vector<double> sums;
    rma::Result<Relation> r = KeyedPrep(m, v, tracer, &t, &sums);
    if (!r.ok()) return false;
    ok = ok && r->num_rows() == m.num_rows() &&
         Near(Sum(DoubleColumn(*r, "y")), want_y, 1e-9) &&
         sums.size() == want_sums.size();
    for (size_t j = 0; ok && j < sums.size(); ++j) {
      ok = Near(sums[j], want_sums[j], 1e-9);
    }
  }
  SetRelTimes(reps, samples);
  return ok;
}

// --- storage probes ----------------------------------------------------------------

bool ProbeScan(const Relation& paged, const Relation& reference,
               Tracer* tracer, Samples* samples) {
  // Each column's sum must equal the in-memory one bit for bit (same
  // values, same summation order).
  std::vector<double> want_sums;
  for (int c = 0; c < reference.num_columns(); ++c) {
    if (reference.column(c)->type() != rma::DataType::kDouble) continue;
    want_sums.push_back(
        Sum(DoubleColumn(reference, reference.schema().attribute(c).name)));
  }
  bool ok = !want_sums.empty();
  std::vector<double> scan_ms;
  for (int pass = 0; pass < 3; ++pass) {
    Span span(tracer, "storage", "pinned scan", 0, 0);
    size_t d = 0;
    for (const rma::BatPtr& col : paged.columns()) {
      if (col->type() != rma::DataType::kDouble) continue;
      if (!col->PinData().ok()) return false;
      const double* p = col->ContiguousDoubleData();
      double sum = 0;
      if (p != nullptr) {
        for (int64_t i = 0; i < col->size(); ++i) sum += p[i];
      }
      col->UnpinData();
      ok = ok && p != nullptr && d < want_sums.size() && sum == want_sums[d];
      ++d;
    }
    scan_ms.push_back(span.End());
  }
  samples->Set("storage.fault_scan_ms", Median(scan_ms));
  return ok;
}

bool ProbeStorage(const Relation& table, const std::string& dir,
                  Tracer* tracer, Samples* samples) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove_all(dir, ec);
  const double user_bytes =
      static_cast<double>(table.num_rows()) * table.num_columns() * 8;
  bool ok = false;
  {
    rma::PagedStoreOptions opts;
    opts.pool_bytes = static_cast<int64_t>(user_bytes / 2);
    auto store = rma::PagedStore::Open(dir, opts);
    if (!store.ok()) return false;
    const int64_t w0 = BytesWritten();
    Span span(tracer, "storage", "PagedStore::SaveTable", 0, 0);
    rma::Result<Relation> saved = (*store)->SaveTable("probe", table);
    samples->Set("storage.save_ms", span.End());
    const int64_t written = BytesWritten() - w0;
    if (saved.ok()) {
      samples->Set("storage.bytes_written", static_cast<double>(written));
      samples->Set("storage.write_amp", written / user_bytes);
      samples->Set("storage.space_amp", DirectoryBytes(dir) / user_bytes);
      const rma::BufferPoolStats before = (*store)->pool()->stats();
      ok = ProbeScan(*saved, table, tracer, samples);
      RecordPoolDelta(before, (*store)->pool()->stats(), samples);
    }
  }
  fs::remove_all(dir, ec);
  return ok;
}

// --- server probes -----------------------------------------------------------------

void RecordServerDelta(const rma::server::ServerStats& before,
                       const rma::server::ServerStats& after,
                       Samples* samples) {
  samples->Set("server.admission_waits",
               static_cast<double>(after.admission_waits -
                                   before.admission_waits));
  samples->Set("server.peak_in_flight",
               static_cast<double>(after.peak_in_flight));
  samples->Set("server.rows_streamed",
               static_cast<double>(after.rows_streamed - before.rows_streamed));
}

bool ProbeOverhead(rma::client::Client* client, rma::sql::Database* in_process,
                   const std::vector<Statement>& stmts, Tracer* tracer,
                   Samples* samples) {
  constexpr int kTid = 100;
  bool ok = true;
  for (const Statement& stmt : stmts) {
    double client_ms = 0, inproc_ms = 0;
    ok = RunThroughClient(client, stmt, tracer, samples, kTid, &client_ms) &&
         ok;
    ok = RunInProcess(in_process, stmt, tracer, samples, kTid, &inproc_ms) &&
         ok;
    samples->Add("server.overhead_ms", client_ms - inproc_ms);
  }
  return ok;
}

bool ProbeServer(rma::sql::Database* db, const std::vector<Statement>& stmts,
                 Tracer* tracer, Samples* samples) {
  rma::server::Server server(db, rma::server::ServerOptions{});
  if (!server.Start().ok()) return false;
  auto conn = rma::client::Client::Connect("127.0.0.1", server.port());
  if (!conn.ok()) {
    server.Stop();
    return false;
  }
  const rma::server::ServerStats before = server.stats();
  const bool ok = ProbeOverhead(&*conn, db, stmts, tracer, samples);
  conn->Close();
  server.Stop();
  RecordServerDelta(before, server.stats(), samples);
  return ok;
}

}  // namespace rmabench
