// trips_server: four client::Client connections to a loopback
// server::Server, each a closed loop over a seeded stream of statements on
// generated BIXI data. Three kinds are interleaved: the Fig. 15 Trips OLS
// written entirely in SQL, a GROUP BY, and a selection that streams at
// least 100k rows. Every statement carries a distinct literal, so the plan
// cache rarely hits and the time sits in relational preparation, sorting,
// planning, admission and wire streaming.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <map>
#include <thread>

#include "server/server.h"
#include "util/random.h"
#include "workload/synthetic.h"
#include "workloads.h"

namespace rmabench {
namespace {

using rma::Relation;
using rma::Status;

constexpr int kClients = 4;
/// The statements of the overhead probe come from this generator.
constexpr int kProbeClient = kClients;
/// Candidate thresholds drawn at set-up for each statement kind.
constexpr int kCandidates = 32;
constexpr int64_t kMinStreamRows = 100000;

/// Per station pair: trips, summed duration, distance.
struct PairStats {
  int64_t trips = 0;
  double duration = 0;
  double dist = 0;
};

/// The popular-pairs subquery of the Trips OLS, with `threshold` as the
/// literal of its popularity filter.
std::string PairsSql(const std::string& threshold) {
  return "(SELECT g.start_station AS s, g.end_station AS e, "
         "SQRT(POW((s2.lat - s1.lat) * 111.0, 2) + "
         "POW((s2.lon - s1.lon) * 78.0, 2)) AS dist "
         "FROM (SELECT start_station, end_station, COUNT(*) AS n FROM trips "
         "GROUP BY start_station, end_station) AS g "
         "JOIN stations AS s1 ON g.start_station = s1.code "
         "JOIN stations AS s2 ON g.end_station = s2.code "
         "WHERE g.n >= " +
         threshold + ")";
}

/// beta = MMU(INV(CPD(A, A)), CPD(A, V)) with A = [1, dist] and V =
/// duration per trip on the popular pairs.
std::string TripsOlsSql(const std::string& threshold) {
  const std::string pairs = PairsSql(threshold);
  const std::string join = " FROM trips AS t JOIN " + pairs +
                           " AS p ON t.start_station = p.s AND "
                           "t.end_station = p.e)";
  const std::string a = "(SELECT t.id AS id, 1.0 AS c0, p.dist AS c1" + join;
  const std::string v = "(SELECT t.id AS id, t.duration AS y" + join;
  return "SELECT * FROM MMU(INV(CPD(" + a + " AS a1 BY id, " + a +
         " AS a2 BY id) BY C) BY C, CPD(" + a + " AS a3 BY id, " + v +
         " AS v BY id) BY C)";
}

class TripsServer final : public Workload {
 public:
  explicit TripsServer(const Args& args) : args_(args) {}
  ~TripsServer() override { Teardown(); }

  void Generate() override {
    Teardown();
    data_ = rma::workload::GenerateBixi(kTrips, kStations, args_.seed);
  }

  Status Build() override {
    db_ = std::make_unique<rma::sql::Database>();
    RMA_RETURN_NOT_OK(db_->Register("trips", data_.trips));
    RMA_RETURN_NOT_OK(db_->Register("stations", data_.stations));
    server_ = std::make_unique<rma::server::Server>(
        db_.get(), rma::server::ServerOptions{});
    RMA_RETURN_NOT_OK(server_->Start());
    for (int c = 0; c < kClients; ++c) {
      RMA_ASSIGN_OR_RETURN(
          rma::client::Client client,
          rma::client::Client::Connect("127.0.0.1", server_->port()));
      clients_.push_back(std::move(client));
    }
    return Status::OK();
  }

  Status Prepare(Report* report) override {
    BuildReferences();
    Digest tables, stream;
    tables.AddRelation(data_.trips);
    tables.AddRelation(data_.stations);
    for (int c = 0; c <= kProbeClient; ++c) {
      Generator gen = MakeGenerator(c);
      for (int i = 0; i < 64; ++i) stream.Add(Next(&gen).sql);
    }
    for (int c = 0; c <= kProbeClient; ++c) gens_.push_back(MakeGenerator(c));
    report->Note("input digest: tables " + tables.Hex() + ", statements " +
                 stream.Hex());
    return Status::OK();
  }

  LoopResult Warmup() override {
    // Every statement kind on every client, concurrently.
    return Loop(0, 3 * kWarmupPasses, nullptr, nullptr);
  }

  LoopResult Run(double seconds, Tracer* tracer, Samples* samples) override {
    const rma::server::ServerStats before = server_->stats();
    LoopResult out = Loop(seconds, 0, tracer, samples);
    if (samples != nullptr) {
      RecordServerDelta(before, server_->stats(), samples);
    }
    return out;
  }

  bool Probe(Tracer* tracer, Samples* samples) override {
    Relation prepared;
    if (!ProbeRel(data_, tracer, samples, &prepared)) return false;
    // The Trips OLS kernel's operands: per-trip distance and duration.
    bool ok = ProbeMatrix(prepared, {"dist", "duration"}, tracer, samples);
    ok = ProbeStorage(prepared, args_.work_dir + "/trips_server-probe-store",
                      tracer, samples) &&
         ok;
    // Fresh statements through a client of the workload's server, then in
    // process on a twin database with its own cache, so both sides plan
    // and prepare them from scratch. The twin first runs one statement of
    // each kind, untimed, so that apart from the fresh plans its caches are
    // as warm as the server's. The in-process side gives core.*.
    rma::sql::Database twin;
    ok = twin.Register("trips", data_.trips).ok() && ok;
    ok = twin.Register("stations", data_.stations).ok() && ok;
    for (int i = 0; i < 3; ++i) {
      double ms = 0;
      ok = RunInProcess(&twin, Next(&gens_[kProbeClient]), nullptr, nullptr,
                        0, &ms) &&
           ok;
    }
    std::vector<Statement> stmts;
    for (int i = 0; i < 6; ++i) stmts.push_back(Next(&gens_[kProbeClient]));
    return ProbeOverhead(&clients_[0], &twin, stmts, tracer, samples) && ok;
  }

  bool Finish(Report*) override {
    Teardown();
    return true;
  }

  rma::sql::Database* database() override { return db_.get(); }

 private:
  struct Generator {
    int client = 0;
    int64_t counter = 0;
    rma::Rng rng{1};
  };

  Generator MakeGenerator(int client) {
    Generator g;
    g.client = client;
    g.rng = rma::Rng(args_.seed * 7919 + static_cast<uint64_t>(client) + 1);
    return g;
  }

  /// The literal `base - 1 + f` with a fraction f in (0, 1) unique to this
  /// client and statement: against integer columns it selects exactly what
  /// `>= base` selects, while its text differs from every other statement's.
  static std::string Literal(const Generator& g, int64_t base) {
    const int64_t unique = 1 + g.client * 200000 + g.counter % 200000;
    return Format("%" PRId64 ".%06" PRId64, base - 1, unique);
  }

  Statement Next(Generator* g) {
    const int kind = static_cast<int>((g->counter + g->client) % 3);
    Statement st;
    if (kind == 0) {
      const int64_t t = g->rng.UniformInt(kMinPopularity, kMaxPopularity);
      st.sql = TripsOlsSql(Literal(*g, t));
      const LabelledMatrix want = ols_[static_cast<size_t>(t - kMinPopularity)];
      st.check = [want] { return MatrixCheck(want); };
    } else if (kind == 1) {
      const size_t i = static_cast<size_t>(g->rng.UniformInt(0, kCandidates - 1));
      st.sql =
          "SELECT start_station, COUNT(*) AS n, SUM(duration) AS s FROM trips "
          "WHERE duration >= " +
          Literal(*g, group_thresholds_[i]) + " GROUP BY start_station";
      const KeyedSum want = group_[i];
      st.check = [want] { return KeyedSumCheck(want); };
    } else {
      const size_t i = static_cast<size_t>(g->rng.UniformInt(0, kCandidates - 1));
      st.sql =
          "SELECT id, start_station, end_station, duration FROM trips "
          "WHERE duration >= " +
          Literal(*g, select_thresholds_[i]);
      const KeyedSum want = select_[i];
      st.check = [want] { return KeyedSumCheck(want); };
    }
    ++g->counter;
    return st;
  }

  void BuildReferences() {
    const std::vector<double> start = DoubleColumn(data_.trips, "start_station");
    const std::vector<double> end = DoubleColumn(data_.trips, "end_station");
    const std::vector<double> dur = DoubleColumn(data_.trips, "duration");
    const std::vector<double> ids = DoubleColumn(data_.trips, "id");
    const std::vector<double> code = DoubleColumn(data_.stations, "code");
    const std::vector<double> lat = DoubleColumn(data_.stations, "lat");
    const std::vector<double> lon = DoubleColumn(data_.stations, "lon");
    std::map<int64_t, size_t> station;
    for (size_t i = 0; i < code.size(); ++i) {
      station[static_cast<int64_t>(code[i])] = i;
    }
    std::map<std::pair<int64_t, int64_t>, PairStats> pairs;
    for (size_t i = 0; i < start.size(); ++i) {
      PairStats& p = pairs[{static_cast<int64_t>(start[i]),
                            static_cast<int64_t>(end[i])}];
      ++p.trips;
      p.duration += dur[i];
    }
    for (auto& [key, p] : pairs) {
      const size_t a = station.at(key.first), b = station.at(key.second);
      p.dist = std::sqrt(std::pow((lat[b] - lat[a]) * 111.0, 2) +
                         std::pow((lon[b] - lon[a]) * 78.0, 2));
    }
    // OLS on [1, dist] per trip: the normal equations sum over pairs.
    ols_.clear();
    for (int64_t t = kMinPopularity; t <= kMaxPopularity; ++t) {
      double n = 0, sx = 0, sxx = 0, sy = 0, sxy = 0;
      for (const auto& [key, p] : pairs) {
        if (p.trips < t) continue;
        n += p.trips;
        sx += p.trips * p.dist;
        sxx += p.trips * p.dist * p.dist;
        sy += p.duration;
        sxy += p.dist * p.duration;
      }
      const double det = n * sxx - sx * sx;
      LabelledMatrix want;
      want.row_labels = {"c0", "c1"};
      want.col_names = {"y"};
      want.values = {(sxx * sy - sx * sxy) / det, (n * sxy - sx * sy) / det};
      want.rel_tol = 1e-7;
      // The generator draws durations around 240 s/km.
      want.band_row = "c1";
      want.band_col = "y";
      want.band_lo = 180;
      want.band_hi = 300;
      ols_.push_back(want);
    }

    std::vector<double> sorted = dur;
    std::sort(sorted.begin(), sorted.end());
    group_thresholds_.clear();
    select_thresholds_.clear();
    group_.clear();
    select_.clear();
    rma::Rng rng(args_.seed * 104729 + 17);
    for (int i = 0; i < kCandidates; ++i) {
      group_thresholds_.push_back(rng.UniformInt(400, 2000));
      // At least kMinStreamRows trips last this long or longer.
      const int64_t target = kMinStreamRows + rng.UniformInt(0, 50000);
      select_thresholds_.push_back(
          static_cast<int64_t>(sorted[sorted.size() - target]));
    }
    for (int i = 0; i < kCandidates; ++i) {
      const double g = static_cast<double>(group_thresholds_[i]);
      std::map<int64_t, std::pair<double, double>> groups;
      for (size_t r = 0; r < dur.size(); ++r) {
        if (dur[r] < g) continue;
        auto& [cnt, sum] = groups[static_cast<int64_t>(start[r])];
        cnt += 1;
        sum += dur[r];
      }
      KeyedSum gw;
      gw.key_col = "start_station";
      gw.value_cols = {"n", "s"};
      gw.rows = static_cast<int64_t>(groups.size());
      for (const auto& [key, cs] : groups) {
        AddKeyedTerm(&gw, key, 0, cs.first);
        AddKeyedTerm(&gw, key, 1, cs.second);
      }
      group_.push_back(gw);

      const double s = static_cast<double>(select_thresholds_[i]);
      KeyedSum sw;
      sw.key_col = "id";
      sw.value_cols = {"start_station", "end_station", "duration"};
      for (size_t r = 0; r < dur.size(); ++r) {
        if (dur[r] < s) continue;
        const int64_t id = static_cast<int64_t>(ids[r]);
        ++sw.rows;
        AddKeyedTerm(&sw, id, 0, start[r]);
        AddKeyedTerm(&sw, id, 1, end[r]);
        AddKeyedTerm(&sw, id, 2, dur[r]);
      }
      select_.push_back(sw);
    }
  }

  /// Runs every client's closed loop on its own thread until `seconds`
  /// have passed (or, with seconds == 0, for `count` statements each).
  LoopResult Loop(double seconds, int count, Tracer* tracer,
                  Samples* samples) {
    std::vector<LoopResult> results(kClients);
    std::vector<std::thread> threads;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = Deadline(seconds);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        LoopResult& out = results[static_cast<size_t>(c)];
        for (int i = 0; count > 0 ? i < count : Clock::now() < deadline; ++i) {
          const Statement st = Next(&gens_[static_cast<size_t>(c)]);
          double ms = 0;
          const bool ok =
              RunThroughClient(&clients_[static_cast<size_t>(c)], st, tracer,
                               samples, c, &ms);
          ++out.attempted;
          if (!ok) ++out.failed;
          out.latencies_ms.push_back(ms);
        }
        out.wall_s = MsSince(start) / 1e3;
      });
    }
    for (std::thread& t : threads) t.join();
    LoopResult all;
    for (const LoopResult& r : results) all.Merge(r);
    return all;
  }

  void Teardown() {
    clients_.clear();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    db_.reset();
  }

  static constexpr int64_t kMinPopularity = 30;
  static constexpr int64_t kMaxPopularity = 70;

  const Args args_;
  rma::workload::BixiData data_;
  std::unique_ptr<rma::sql::Database> db_;
  std::unique_ptr<rma::server::Server> server_;
  std::vector<rma::client::Client> clients_;
  std::vector<Generator> gens_;
  std::vector<LabelledMatrix> ols_;
  std::vector<int64_t> group_thresholds_, select_thresholds_;
  std::vector<KeyedSum> group_, select_;
};

}  // namespace

std::unique_ptr<Workload> MakeTripsServer(const Args& args) {
  return std::make_unique<TripsServer>(args);
}

}  // namespace rmabench
