// gram_qr: one in-process client repeating the Fig. 13 / Fig. 15 matrix
// statements through Database::Execute over in-memory tables. The
// statements repeat, so the plan and prepared-argument caches hit and the
// time sits in core's gather / kernel / scatter / merge stages and in the
// matrix kernels.
#include "workload/synthetic.h"
#include "workloads.h"

namespace rmabench {
namespace {

using rma::Relation;
using rma::Status;

class GramQr final : public Workload {
 public:
  explicit GramQr(const Args& args) : args_(args) {}

  void Generate() override {
    db_.reset();
    const uint64_t s = args_.seed * 1000;
    m_ = rma::workload::UniformRelation(kMatrixRows, kMatrixCols, s + 1, 0.0,
                                        10000.0, false, "m");
    v_ = rma::workload::UniformRelation(kMatrixRows, 1, s + 2, 0.0, 10000.0,
                                        false, "v");
    m2_ = rma::workload::UniformRelation(kMatrixRows, kMatrixCols, s + 3, 0.0,
                                         10000.0, false, "m2");
  }

  Status Build() override {
    // ADD needs distinct order-attribute names on its two arguments.
    RMA_ASSIGN_OR_RETURN(m2_, m2_.RenameColumn(0, "id2"));
    db_ = std::make_unique<rma::sql::Database>();
    RMA_RETURN_NOT_OK(db_->Register("m", m_));
    RMA_RETURN_NOT_OK(db_->Register("v", v_));
    return db_->Register("m2", m2_);
  }

  Status Prepare(Report* report) override {
    RMA_ASSIGN_OR_RETURN(MatrixReference ref, BuildMatrixReference(m_, &v_));
    const LabelledMatrix gram = GramResult(ref);
    const LabelledMatrix ols = OlsResult(ref);
    const size_t k = static_cast<size_t>(ref.cols);

    // QQR(m BY id): the unique thin Q with positive diag(R) is X R^{-1} for
    // the Cholesky factor R of X^T X.
    KeyedSum q;
    q.key_col = "id";
    q.value_cols = ColumnLabels(ref.cols);
    q.rows = ref.rows;
    q.rel_tol = 1e-8;
    std::vector<double> qrow(k);
    for (int64_t i = 0; i < ref.rows; ++i) {
      SolveRowUpper(ref.chol, ref.cols, ref.x.data() + i * k, qrow.data());
      for (size_t j = 0; j < k; ++j) {
        AddKeyedTerm(&q, i, static_cast<int>(j), qrow[j]);
      }
    }

    // ADD(m BY id, m2 BY id2): key-aligned element-wise sums.
    KeyedSum add;
    add.key_col = "id";
    add.value_cols = ColumnLabels(ref.cols);
    add.rows = ref.rows;
    {
      const std::vector<double> id2 = DoubleColumn(m2_, "id2");
      for (size_t j = 0; j < k; ++j) {
        const std::vector<double> col =
            DoubleColumn(m2_, "a" + std::to_string(j));
        for (size_t i = 0; i < col.size(); ++i) {
          const int64_t id = static_cast<int64_t>(id2[i]);
          AddKeyedTerm(&add, id, static_cast<int>(j),
                       ref.x[static_cast<size_t>(id) * k + j] + col[i]);
        }
      }
    }

    stmts_ = {
        {"SELECT * FROM CPD(m BY id, m BY id)",
         [gram] { return MatrixCheck(gram); }},
        {"SELECT * FROM QQR(m BY id)", [q] { return KeyedSumCheck(q); }},
        {"SELECT * FROM MMU(TRA(m BY id) BY C, m BY id)",
         [gram] { return MatrixCheck(gram); }},
        {"SELECT * FROM MMU(INV(CPD(m BY id, m BY id) BY C) BY C, "
         "CPD(m BY id, v BY id) BY C)",
         [ols] { return MatrixCheck(ols); }},
        {"SELECT * FROM ADD(m BY id, m2 BY id2)",
         [add] { return KeyedSumCheck(add); }},
    };

    Digest tables, stream;
    tables.AddRelation(m_);
    tables.AddRelation(v_);
    tables.AddRelation(m2_);
    for (const Statement& st : stmts_) stream.Add(st.sql);
    report->Note("input digest: tables " + tables.Hex() + ", statements " +
                 stream.Hex());
    return Status::OK();
  }

  LoopResult Warmup() override {
    LoopResult out;
    for (int pass = 0; pass < kWarmupPasses; ++pass) {
      for (const Statement& st : stmts_) Execute(st, nullptr, nullptr, &out);
    }
    return out;
  }

  LoopResult Run(double seconds, Tracer* tracer, Samples* samples) override {
    LoopResult out;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = Deadline(seconds);
    for (size_t i = 0; Clock::now() < deadline; ++i) {
      Execute(stmts_[i % stmts_.size()], tracer, samples, &out);
    }
    out.wall_s = MsSince(start) / 1e3;
    return out;
  }

  bool Probe(Tracer* tracer, Samples* samples) override {
    bool ok = ProbeMatrix(m_, ColumnLabels(kMatrixCols), tracer, samples);
    ok = ProbeRel(m_, v_, tracer, samples) && ok;
    ok = ProbeStorage(m_, args_.work_dir + "/gram_qr-probe-store", tracer,
                      samples) &&
         ok;
    return ProbeServer(db_.get(), stmts_, tracer, samples) && ok;
  }

  bool Finish(Report*) override { return true; }

  rma::sql::Database* database() override { return db_.get(); }

 private:
  void Execute(const Statement& st, Tracer* tracer, Samples* samples,
               LoopResult* out) {
    double ms = 0;
    const bool ok = RunInProcess(db_.get(), st, tracer, samples, 0, &ms);
    ++out->attempted;
    if (!ok) ++out->failed;
    out->latencies_ms.push_back(ms);
  }

  const Args args_;
  Relation m_, v_, m2_;
  std::unique_ptr<rma::sql::Database> db_;
  std::vector<Statement> stmts_;
};

}  // namespace

std::unique_ptr<Workload> MakeGramQr(const Args& args) {
  return std::make_unique<GramQr>(args);
}

}  // namespace rmabench
