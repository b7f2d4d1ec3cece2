// ooc_mixed: one in-process client on Database::Open(<dir>) with the buffer
// pool at half the working set. Gram and OLS reads over paged tables
// alternate with CREATE TABLE ... AS writes of a derived relation and DROP
// TABLE, under the default flush policy (fsync and manifest swing per
// commit). The only workload where storage (pager, buffer pool, paged
// store) carries the time. The run ends by reopening the directory and
// fingerprinting every committed table.
#include <cinttypes>
#include <cstdlib>
#include <filesystem>
#include <map>

#include "util/random.h"
#include "workload/synthetic.h"
#include "workloads.h"

namespace rmabench {
namespace {

using rma::Relation;
using rma::Status;

/// The derived relation keeps the rows with a8 below this and columns
/// id, a0 + literal, a1..a7.
constexpr double kDerivedFilter = 5000.0;
constexpr int kDerivedCols = 8;

class OocMixed final : public Workload {
 public:
  explicit OocMixed(const Args& args) : args_(args) {}
  ~OocMixed() override { RemoveDir(); }

  void Generate() override {
    db_.reset();
    RemoveDir();
    const uint64_t s = args_.seed * 1000;
    m_ = rma::workload::UniformRelation(kMatrixRows, kMatrixCols, s + 1, 0.0,
                                        10000.0, false, "m");
    v_ = rma::workload::UniformRelation(kMatrixRows, 1, s + 2, 0.0, 10000.0,
                                        false, "v");
  }

  Status Build() override {
    dir_ = Format("%s/ooc_mixed-%d", args_.work_dir.c_str(), setups_++);
    RMA_ASSIGN_OR_RETURN(rma::sql::Database db,
                         rma::sql::Database::Open(dir_, StoreOptions()));
    db_ = std::make_unique<rma::sql::Database>(db);
    RMA_RETURN_NOT_OK(db_->Register("m", m_));
    return db_->Register("v", v_);
  }

  Status Prepare(Report* report) override {
    RMA_ASSIGN_OR_RETURN(ref_, BuildMatrixReference(m_, &v_));
    gram_ = GramResult(ref_);
    ols_ = OlsResult(ref_);
    // The derived subset: rows (by id) with a8 < kDerivedFilter.
    const size_t k = static_cast<size_t>(ref_.cols);
    const size_t d = kDerivedCols;
    subset_.clear();
    for (int64_t i = 0; i < ref_.rows; ++i) {
      if (ref_.x[static_cast<size_t>(i) * k + 8] < kDerivedFilter) {
        subset_.push_back(i);
      }
    }
    std::vector<double> xs(subset_.size() * d);
    for (size_t r = 0; r < subset_.size(); ++r) {
      for (size_t j = 0; j < d; ++j) {
        xs[r * d + j] = ref_.x[static_cast<size_t>(subset_[r]) * k + j];
      }
    }
    subset_gram_ = Gram(xs, static_cast<int64_t>(subset_.size()), kDerivedCols);
    subset_sums_.assign(d, 0.0);
    base_sum_ = KeyedSum();
    base_sum_.key_col = "id";
    base_sum_.value_cols = ColumnLabels(kDerivedCols);
    base_sum_.rows = static_cast<int64_t>(subset_.size());
    weight0_ = 0;
    for (size_t r = 0; r < subset_.size(); ++r) {
      weight0_ += Weight(subset_[r], 0);
      for (size_t j = 0; j < d; ++j) {
        subset_sums_[j] += xs[r * d + j];
        AddKeyedTerm(&base_sum_, subset_[r], static_cast<int>(j),
                     xs[r * d + j]);
      }
    }
    derived_.clear();
    Digest tables, stream;
    tables.AddRelation(m_);
    tables.AddRelation(v_);
    Rewind();
    for (int i = 0; i < 64; ++i) stream.Add(NextStatement().sql);
    Rewind();
    report->Note("input digest: tables " + tables.Hex() + ", statements " +
                 stream.Hex());
    report->Note(Format("buffer pool %" PRId64 " bytes for a %" PRId64
                        "-byte working set",
                        StoreOptions().pool_bytes, WorkingSetBytes()));
    return Status::OK();
  }

  LoopResult Warmup() override {
    LoopResult out;
    // d0, then whole cycles: every statement kind once per cycle.
    for (int i = 0; i <= kWarmupPasses * kCycle; ++i) {
      Execute(nullptr, nullptr, &out);
    }
    return out;
  }

  LoopResult Run(double seconds, Tracer* tracer, Samples* samples) override {
    LoopResult out;
    rma::BufferPoolStats pool0 = db_->paged_store()->pool()->stats();
    committed_bytes_ = 0;
    const int64_t w0 = BytesWritten();
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = Deadline(seconds);
    while (Clock::now() < deadline) Execute(tracer, samples, &out);
    out.wall_s = MsSince(start) / 1e3;
    write_amp_ = committed_bytes_ > 0
                     ? static_cast<double>(BytesWritten() - w0) /
                           static_cast<double>(committed_bytes_)
                     : 0.0;
    if (samples != nullptr) {
      RecordPoolDelta(pool0, db_->paged_store()->pool()->stats(), samples);
      samples->Set("storage.write_amp", write_amp_);
    }
    return out;
  }

  bool Probe(Tracer* tracer, Samples* samples) override {
    samples->Set("storage.space_amp", SpaceAmp());
    bool ok = ProbeMatrix(m_, ColumnLabels(kMatrixCols), tracer, samples);
    ok = ProbeRel(m_, v_, tracer, samples) && ok;
    // The workload's own save path: a copy of m written through the
    // durable catalog under the default flush policy, then dropped.
    const int64_t w0 = BytesWritten();
    Span save(tracer, "storage", "Database::Register (paged)", 0, 0);
    ok = db_->Register("probe", m_).ok() && ok;
    samples->Set("storage.save_ms", save.End());
    samples->Set("storage.bytes_written",
                 static_cast<double>(BytesWritten() - w0));
    ok = db_->Drop("probe").ok() && ok;
    // Scans of the workload's paged m under its own pool.
    auto paged = db_->Get("m");
    ok = paged.ok() && ProbeScan(*paged, m_, tracer, samples) && ok;
    return ProbeServer(db_.get(), {GramStatement(), OlsStatement()}, tracer,
                       samples) &&
           ok;
  }

  bool Finish(Report* report) override {
    const double space_amp = SpaceAmp();
    report->Note(Format("write_amp %.4f (process bytes written / user bytes "
                        "committed by CREATE TABLE AS)",
                        write_amp_));
    report->Note(Format("space_amp %.4f (data directory bytes / live user "
                        "bytes)",
                        space_amp));
    // Durability: reopen the directory and fingerprint every table.
    std::map<std::string, TableFingerprint> committed = {
        {"m", Fingerprint(m_)}, {"v", Fingerprint(v_)}};
    for (const auto& [name, lit] : derived_) {
      committed[name] = DerivedFingerprint(lit);
    }
    db_.reset();
    auto reopened = rma::sql::Database::Open(dir_, StoreOptions());
    std::vector<std::string> names;
    if (reopened.ok()) names = reopened->TableNames();
    bool ok = reopened.ok() && names.size() == committed.size();
    for (const std::string& name : names) {
      auto it = committed.find(name);
      auto table = reopened->Get(name);
      ok = ok && it != committed.end() && table.ok() &&
           Fingerprint(*table) == it->second;
    }
    report->Note(Format("durability: %zu tables committed, %zu reopened, %s",
                        committed.size(), names.size(),
                        ok ? "all fingerprints match" : "MISMATCH"));
    return ok;
  }

  rma::sql::Database* database() override { return db_.get(); }

 private:
  static constexpr int kCycle = 5;

  rma::PagedStoreOptions StoreOptions() const {
    rma::PagedStoreOptions opts;
    opts.pool_bytes = WorkingSetBytes() / 2;
    return opts;
  }

  /// m and v, every column 8 bytes wide.
  static int64_t WorkingSetBytes() {
    return kMatrixRows * (kMatrixCols + 1 + 2) * 8;
  }

  static std::string Derived(int64_t cycle) {
    return "d" + std::to_string(cycle);
  }

  Statement GramStatement() const {
    const LabelledMatrix want = gram_;
    return {"SELECT * FROM CPD(m BY id, m BY id)",
            [want] { return MatrixCheck(want); }};
  }

  Statement OlsStatement() const {
    const LabelledMatrix want = ols_;
    return {"SELECT * FROM MMU(INV(CPD(m BY id, m BY id) BY C) BY C, "
            "CPD(m BY id, v BY id) BY C)",
            [want] { return MatrixCheck(want); }};
  }

  /// The stream starts with CREATE d0; then cycle k >= 1 is CPD(m),
  /// CREATE d<k>, OLS(m, v), CPD(d<k>), DROP d<k-1>.
  void Rewind() {
    rng_ = rma::Rng(args_.seed * 31337 + 5);
    step_ = 1;
    cycle_ = 0;
  }

  Statement NextStatement() {
    const int step = step_;
    step_ = (step_ + 1) % kCycle;
    if (step == 0) {
      ++cycle_;
      return GramStatement();
    }
    if (step == 2) return OlsStatement();
    if (step == 4) {
      return {"DROP TABLE " + Derived(cycle_ - 1),
              [] { return RowCountCheck(0); }};
    }
    if (step == 1) {
      if (cycle_ == 0) step_ = 0;
      // A seeded literal, printed and parsed back so the reference uses
      // exactly the value the statement carries.
      const std::string text = Format("%.6f", rng_.Uniform(1.0, 1000.0));
      lit_ = std::strtod(text.c_str(), nullptr);
      KeyedSum want = base_sum_;
      want.sum += lit_ * weight0_;
      want.abs_sum += lit_ * weight0_;
      std::string sql = "CREATE TABLE " + Derived(cycle_) +
                        " AS SELECT id, a0 + " + text + " AS a0";
      for (int j = 1; j < kDerivedCols; ++j) {
        sql += ", a" + std::to_string(j);
      }
      sql += Format(" FROM m WHERE a8 < %.1f", kDerivedFilter);
      return {sql, [want] { return KeyedSumCheck(want); }};
    }
    // CPD of the derived table: the subset's Gram with a0 shifted by lit.
    LabelledMatrix want;
    want.row_labels = ColumnLabels(kDerivedCols);
    want.col_names = want.row_labels;
    want.values = subset_gram_;
    const size_t d = kDerivedCols;
    for (size_t j = 0; j < d; ++j) {
      want.values[j] += lit_ * subset_sums_[j];
      want.values[j * d] += lit_ * subset_sums_[j];
    }
    want.values[0] +=
        lit_ * lit_ * static_cast<double>(subset_.size());
    const std::string name = Derived(cycle_);
    return {"SELECT * FROM CPD(" + name + " BY id, " + name + " BY id)",
            [want] { return MatrixCheck(want); }};
  }

  void Execute(Tracer* tracer, Samples* samples, LoopResult* out) {
    const int step = step_;
    const Statement st = NextStatement();
    double ms = 0;
    Relation result;
    const bool ok =
        RunInProcess(db_.get(), st, tracer, samples, 0, &ms, &result);
    ++out->attempted;
    if (!ok) ++out->failed;
    out->latencies_ms.push_back(ms);
    if (!ok) return;
    if (step == 1) {
      committed_bytes_ += result.num_rows() * result.num_columns() * 8;
      derived_[Derived(cycle_)] = lit_;
    } else if (step == 4) {
      derived_.erase(Derived(cycle_ - 1));
    }
  }

  /// The fingerprint a derived table must have: the subset's rows with
  /// a0 + lit, computed from the generated data.
  TableFingerprint DerivedFingerprint(double lit) const {
    TableFingerprint fp;
    fp.rows = static_cast<int64_t>(subset_.size());
    const size_t k = static_cast<size_t>(ref_.cols);
    std::vector<double> row(kDerivedCols + 1);
    for (int64_t id : subset_) {
      row[0] = static_cast<double>(id);
      for (size_t j = 0; j < kDerivedCols; ++j) {
        row[j + 1] = ref_.x[static_cast<size_t>(id) * k + j];
      }
      row[1] += lit;
      fp.hash += RowHash(row);
    }
    return fp;
  }

  double SpaceAmp() const {
    const double live_bytes =
        static_cast<double>(WorkingSetBytes()) +
        static_cast<double>(derived_.size() * subset_.size()) *
            (kDerivedCols + 1) * 8;
    return static_cast<double>(DirectoryBytes(dir_)) / live_bytes;
  }

  void RemoveDir() {
    if (dir_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  const Args args_;
  int setups_ = 0;
  std::string dir_;
  Relation m_, v_;
  std::unique_ptr<rma::sql::Database> db_;
  MatrixReference ref_;
  LabelledMatrix gram_, ols_;
  std::vector<int64_t> subset_;
  std::vector<double> subset_gram_, subset_sums_;
  KeyedSum base_sum_;
  double weight0_ = 0;
  rma::Rng rng_{1};
  int step_ = 0;
  int64_t cycle_ = 0;
  double lit_ = 0;
  int64_t committed_bytes_ = 0;
  double write_amp_ = 0;
  /// Committed derived tables and the literals they were built with; with
  /// m and v, what a reopen must find.
  std::map<std::string, double> derived_;
};

}  // namespace

std::unique_ptr<Workload> MakeOocMixed(const Args& args) {
  return std::make_unique<OocMixed>(args);
}

}  // namespace rmabench
