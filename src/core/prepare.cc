#include <algorithm>
#include <memory>
#include <utility>

#include "core/constructors.h"
#include "core/exec_internal.h"
#include "matrix/parallel.h"
#include "storage/bat_ops.h"
#include "util/timer.h"

namespace rma::internal {

namespace {

/// Elements per gather worker below which GatherColumns stays on one thread.
constexpr int64_t kGatherGrain = int64_t{1} << 16;

bool IsIdentity(const std::vector<int64_t>& perm) {
  for (size_t i = 0; i < perm.size(); ++i) {
    if (perm[i] != static_cast<int64_t>(i)) return false;
  }
  return true;
}

/// Hash-based key-uniqueness check, O(n) (used on sort-avoiding paths).
Status CheckKeyHashed(const std::vector<BatPtr>& keys) {
  if (!bat_ops::IsKey(keys)) {
    return Status::Invalid("order schema is not a key of the relation");
  }
  return Status::OK();
}

/// The sort itself (or its hash-validated avoidance), uncached.
Result<std::shared_ptr<PreparedArg>> ComputePrepared(
    const Relation& r, const std::vector<std::string>& order,
    const RmaOptions& opts, bool avoid_sort) {
  auto p = std::make_shared<PreparedArg>();
  p->rel = r;
  p->rows = r.num_rows();
  RMA_ASSIGN_OR_RETURN(p->split, SplitSchema(r, order));
  std::vector<BatPtr> keys;
  for (int i : p->split.order_idx) keys.push_back(r.column(i));
  if (avoid_sort) {
    if (opts.validate_keys) RMA_RETURN_NOT_OK(CheckKeyHashed(keys));
    return p;  // identity perm
  }
  bool unique = true;
  std::vector<int64_t> perm = bat_ops::ArgSortUnique(keys, &unique);
  if (opts.validate_keys && !unique) {
    return Status::Invalid("order schema is not a key of the relation");
  }
  if (!IsIdentity(perm)) p->perm = std::move(perm);
  return p;
}

}  // namespace

Result<PreparedArgPtr> PrepareArgument(ExecContext& ctx, const Relation& r,
                                       const std::vector<std::string>& order,
                                       const OpInfo& info,
                                       bool skip_sort_allowed) {
  if (order.empty()) {
    return Status::Invalid("order schema must not be empty");
  }
  if (info.requires_single_order && order.size() != 1) {
    return Status::Invalid(std::string(info.name) +
                           ": order schema must contain exactly one attribute");
  }
  const RmaOptions& opts = ctx.options();
  const bool avoid_sort = skip_sort_allowed &&
                          opts.sort == SortPolicy::kOptimized &&
                          info.row_order_invariant;
  if (PreparedArgPtr cached = ctx.LookupPrepared(r, order, avoid_sort)) {
    return cached;  // no prepare time recorded: the sort is reused
  }
  Timer timer;
  auto computed = ComputePrepared(r, order, opts, avoid_sort);
  ctx.RecordStage(Stage::kPrepare, timer.Seconds());
  RMA_RETURN_NOT_OK(computed.status());
  PreparedArgPtr prepared = *computed;
  ctx.StorePrepared(r, order, avoid_sort, prepared);
  return prepared;
}

Result<BinaryArgs> PrepareBinaryArgs(ExecContext& ctx, const OpInfo& info,
                                     const Relation& r,
                                     const std::vector<std::string>& order_r,
                                     const Relation& s,
                                     const std::vector<std::string>& order_s) {
  const RmaOptions& opts = ctx.options();
  BinaryArgs out;
  RMA_ASSIGN_OR_RETURN(out.left,
                       PrepareArgument(ctx, r, order_r, info,
                                       /*skip_sort_allowed=*/false));
  // opd's column cast is over s's order schema: |V| = 1.
  if (info.op == MatrixOp::kOpd && order_s.size() != 1) {
    return Status::Invalid("opd: second order schema must contain exactly "
                           "one attribute");
  }

  // Relative alignment (Sec. 8.1): for element-wise operations only the
  // relative row order matters — keep r in physical order and align s's
  // rows to r's keys by hashing instead of sorting both.
  if (opts.sort == SortPolicy::kOptimized && info.relative_align_ok) {
    // A previously computed alignment of s onto r (this statement or, with a
    // shared database-level cache, an earlier one) is reused outright: the
    // whole pipeline over (r, s) pays for one hash alignment, not one per
    // operation.
    if (PreparedArgPtr cached = ctx.LookupAligned(s, order_s, r, order_r)) {
      if (!out.left->identity()) {
        auto relaxed = std::make_shared<PreparedArg>(*out.left);
        relaxed->perm.clear();
        out.left = std::move(relaxed);
      }
      out.right = cached;
      return out;
    }
    Timer timer;
    auto cand = std::make_shared<PreparedArg>();
    cand->rel = s;
    cand->rows = s.num_rows();
    auto split = SplitSchema(s, order_s);
    if (split.ok()) {
      cand->split = std::move(*split);
      std::vector<BatPtr> rkeys;
      for (int i : out.left->split.order_idx) rkeys.push_back(r.column(i));
      std::vector<BatPtr> skeys;
      for (int i : cand->split.order_idx) skeys.push_back(s.column(i));
      bool type_match = rkeys.size() == skeys.size();
      for (size_t i = 0; type_match && i < rkeys.size(); ++i) {
        if (rkeys[i]->type() != skeys[i]->type()) type_match = false;
      }
      if (type_match && r.num_rows() == s.num_rows()) {
        // Same key columns (self-application, e.g. cpd(A, A)): the
        // alignment is the identity — skip the hash pass entirely.
        bool same_bats = true;
        for (size_t i = 0; i < rkeys.size(); ++i) {
          if (rkeys[i].get() != skeys[i].get()) same_bats = false;
        }
        if (same_bats) {
          if (opts.validate_keys) {
            const Status st = CheckKeyHashed(rkeys);
            if (!st.ok()) {
              ctx.RecordStage(Stage::kPrepare, timer.Seconds());
              return st;
            }
          }
          out.right = std::move(cand);
        } else if (auto align = bat_ops::AlignByKey(skeys, rkeys);
                   align.ok()) {
          // A successful alignment is a bijection between the two key
          // sets, which already proves both order schemas are keys — no
          // separate validation pass.
          cand->perm = std::move(*align);
          if (IsIdentity(cand->perm)) cand->perm.clear();
          out.right = std::move(cand);
        }
      }
      if (out.right != nullptr) {
        // r keeps its physical order.
        if (!out.left->identity()) {
          auto relaxed = std::make_shared<PreparedArg>(*out.left);
          relaxed->perm.clear();
          out.left = std::move(relaxed);
        }
        ctx.RecordStage(Stage::kPrepare, timer.Seconds());
        ctx.StoreAligned(s, order_s, r, order_r, out.right);
        return out;
      }
    }
    ctx.RecordStage(Stage::kPrepare, timer.Seconds());
  }
  RMA_ASSIGN_OR_RETURN(out.right,
                       PrepareArgument(ctx, s, order_s, info,
                                       /*skip_sort_allowed=*/false));
  return out;
}

Status CheckBinaryDims(const OpInfo& info, const PreparedArg& r,
                       const PreparedArg& s) {
  switch (info.op) {
    case MatrixOp::kAdd:
    case MatrixOp::kSub:
    case MatrixOp::kEmu: {
      if (r.rows != s.rows || r.app_cols() != s.app_cols()) {
        return Status::Invalid(std::string(info.name) +
                               ": application parts must have equal shape");
      }
      // Non-overlapping order schemas (the result inherits both).
      for (int i : r.split.order_idx) {
        const std::string& name = r.rel.schema().attribute(i).name;
        for (int j : s.split.order_idx) {
          if (s.rel.schema().attribute(j).name == name) {
            return Status::Invalid(std::string(info.name) +
                                   ": order schemas overlap on '" + name +
                                   "'");
          }
        }
      }
      return Status::OK();
    }
    case MatrixOp::kMmu:
      if (r.app_cols() != s.rows) {
        return Status::Invalid("mmu: inner dimensions differ");
      }
      return Status::OK();
    case MatrixOp::kCpd:
      if (r.rows != s.rows) {
        return Status::Invalid("cpd: argument cardinalities differ");
      }
      return Status::OK();
    case MatrixOp::kOpd:
      if (r.app_cols() != s.app_cols()) {
        return Status::Invalid("opd: application schemas differ in width");
      }
      return Status::OK();
    case MatrixOp::kSol:
      if (r.rows != s.rows) {
        return Status::Invalid("sol: argument cardinalities differ");
      }
      if (s.app_cols() != 1) {
        return Status::Invalid(
            "sol: second argument must have a single application attribute");
      }
      if (r.rows < r.app_cols()) {
        return Status::Invalid("sol: system is underdetermined");
      }
      return Status::OK();
    default:
      return Status::Invalid("not a binary operation");
  }
}

DenseMatrix GatherMatrix(const PreparedArg& p) {
  const int64_t n = p.rows;
  const int64_t k = p.app_cols();
  DenseMatrix m(n, k);
  // All-dense inputs take the tiled multi-column transpose, which fills each
  // destination cache line while it is resident instead of sweeping the
  // row-major matrix once per column.
  std::vector<const double*> ptrs(static_cast<size_t>(k), nullptr);
  bool all_dense = true;
  for (int64_t j = 0; j < k; ++j) {
    const Bat& col = *p.rel.column(p.split.app_idx[static_cast<size_t>(j)]);
    if (const double* d = col.ContiguousDoubleData()) {
      ptrs[static_cast<size_t>(j)] = d;
    } else {
      all_dense = false;
      break;
    }
  }
  if (all_dense) {
    bat_ops::PackColumnsRowMajor(ptrs.data(), k,
                                 p.identity() ? nullptr : p.perm.data(), n,
                                 m.data());
    return m;
  }
  static const std::vector<int64_t> kIdentity;
  for (int64_t j = 0; j < k; ++j) {
    const Bat& col = *p.rel.column(p.split.app_idx[static_cast<size_t>(j)]);
    bat_ops::GatherColumnToStrided(col, p.identity() ? kIdentity : p.perm,
                                   m.data() + j, k);
  }
  return m;
}

kernel::Columns GatherColumns(const PreparedArg& p) {
  const int64_t n = p.rows;
  const int64_t k = p.app_cols();
  kernel::Columns cols(static_cast<size_t>(k));
  // Reserve here, fill on the workers: the buffers come from the calling
  // thread's heap, their first-touch page faults spread across the workers,
  // and no zero-fill pass precedes the copy.
  for (auto& c : cols) c.reserve(static_cast<size_t>(n));
  ParallelFor(
      0, k,
      [&](int64_t lo, int64_t hi) {
        for (int64_t j = lo; j < hi; ++j) {
          const size_t jj = static_cast<size_t>(j);
          std::vector<double>& out = cols[jj];
          const Bat& col = *p.rel.column(p.split.app_idx[jj]);
          const double* d = col.ContiguousDoubleData();
          if (d == nullptr) {
            out = p.AppColumnDense(jj);
          } else if (p.identity()) {
            out.assign(d, d + n);
          } else {
            for (const int64_t i : p.perm) out.push_back(d[i]);
          }
        }
      },
      /*min_chunk=*/std::max<int64_t>(1, kGatherGrain / std::max<int64_t>(1, n)));
  return cols;
}

}  // namespace rma::internal
