#include "workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <set>

#include "analysis/admissibility.h"
#include "analysis/checker.h"
#include "analysis/demand/demand.h"
#include "analysis/dependency_graph.h"
#include "analysis/plan/plan.h"
#include "core/engine.h"
#include "datalog/parser.h"
#include "oracle.h"
#include "server/checkpoint.h"
#include "server/client.h"
#include "server/recovery.h"
#include "server/server.h"
#include "server/state.h"
#include "server/wal.h"
#include "trace.h"
#include "util/random.h"
#include "util/string_util.h"
#include "workloads/programs.h"

namespace perfbench {

using mad::StrPrintf;
using mad::server::Json;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Samples of one latency, grouped by operation: op k of every round is the
/// same request against the same state, so its fastest time over the rounds
/// is its cost with the host's slow moments filtered out.
///
/// The estimate of a stream of distinct operations is the median over the
/// operations of each one's fastest time. The estimate of one operation
/// repeated (an evaluation, a recovery) is the lower quartile of its
/// repetitions: across five runs it spread about half as much as their
/// minimum, an extreme of some 10 to 30 samples.
class Series {
 public:
  void Add(size_t op, double value) {
    if (ops_.size() <= op) ops_.resize(op + 1);
    ops_[op].push_back(value);
  }
  std::vector<double> All() const {
    std::vector<double> all;
    for (const auto& s : ops_) all.insert(all.end(), s.begin(), s.end());
    return all;
  }
  double Estimate() const {
    if (ops_.size() == 1) return Quantile(ops_[0], 0.25);
    std::vector<double> mins;
    for (const auto& s : ops_) {
      if (!s.empty()) mins.push_back(*std::min_element(s.begin(), s.end()));
    }
    return Quantile(mins, 0.5);
  }

 private:
  std::vector<std::vector<double>> ops_;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class ProgramKind { kShortestPath, kCompanyControl };

struct Spec {
  const char* name;
  ProgramKind program;
  /// serve-sp: the session goes through Server + Client over loopback.
  /// batch-*: the session calls ServerState::Handle in process.
  bool over_wire;
  /// One mondl-path evaluation after every `eval_every`-th insert (0: none).
  int eval_every;
  int inserts_per_round;
  int session_queries_per_insert;
  /// Whether query_p50_ms is taken from the session's query verb (else from
  /// the direct Engine::Query calls on the query network).
  bool session_queries_timed;
  int direct_queries_per_insert;
  int dump_every;
  int checkpoint_every;
};

// Input sizes (README "Inputs").
constexpr int kSpNodes = 150;
constexpr int kSpArcs = 600;
constexpr int kChains = 1;
constexpr int kChainLength = 280;
constexpr int kQueryCompanies = 38000;
constexpr double kInsertedShare = 0.04;

const Spec kSpecs[] = {
    {"batch-sp", ProgramKind::kShortestPath, false, 2, 12, 1, true, 0, 3, 9},
    {"batch-control", ProgramKind::kCompanyControl, false, 2, 8, 1, false, 12,
     2, 6},
    {"serve-sp", ProgramKind::kShortestPath, true, 0, 20, 3, true, 0, 10, 15},
};

const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

struct Inputs {
  Digraph graph;
  std::vector<Arc> arc_inserts;
  Ownership network;
  std::vector<Share> share_inserts;
  /// Program text followed by the workload's facts.
  std::string program_text;
  std::vector<std::string> insert_texts;
  /// Per insert: the sources of the session's point queries.
  std::vector<std::vector<int>> session_sources;
  /// batch-control: the frozen query network and the direct queries' sources
  /// (direct_queries_per_insert per insert, the same every round).
  Ownership query_network;
  std::vector<int> direct_sources;
};

std::string QueryAtom(ProgramKind kind, int source) {
  return kind == ProgramKind::kShortestPath
             ? StrPrintf("s(n%d, Y, C)", source)
             : StrPrintf("m(c%d, Y, N)", source);
}

/// Draws `k` distinct values in [0, n).
std::vector<int> Distinct(int k, int n, mad::Random* rng) {
  std::set<int> seen;
  std::vector<int> out;
  while (static_cast<int>(out.size()) < k) {
    int v = static_cast<int>(rng->Uniform(0, n - 1));
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

Inputs MakeInputs(const Spec& spec, uint64_t seed) {
  Inputs in;
  mad::Random rng(seed * 0x9E3779B97F4A7C15ull + 17);
  if (spec.program == ProgramKind::kShortestPath) {
    in.graph = MakeDigraph(kSpNodes, kSpArcs, seed);
    in.program_text = ShortestPathText(in.graph);
    for (int i = 0; i < spec.inserts_per_round; ++i) {
      in.arc_inserts.push_back(RandomArc(kSpNodes, &rng));
      in.insert_texts.push_back(ArcFact(in.arc_inserts.back()));
      in.session_sources.push_back(
          Distinct(spec.session_queries_per_insert, kSpNodes, &rng));
    }
  } else {
    in.network = MakeChainNetwork(kChains, kChainLength, seed);
    in.program_text = CompanyControlText(in.network);
    std::set<std::pair<int, int>> held;
    for (const Share& s : in.network.shares) held.insert({s.owner, s.company});
    while (static_cast<int>(in.share_inserts.size()) <
           spec.inserts_per_round) {
      Share s;
      s.owner = static_cast<int>(rng.Uniform(0, in.network.companies - 1));
      s.company = static_cast<int>(rng.Uniform(0, in.network.companies - 1));
      s.fraction = kInsertedShare;
      if (s.owner == s.company || !held.insert({s.owner, s.company}).second) {
        continue;
      }
      in.share_inserts.push_back(s);
      in.insert_texts.push_back(ShareFact(s));
      in.session_sources.push_back(Distinct(
          spec.session_queries_per_insert, in.network.companies, &rng));
    }
    in.query_network = MakeSparseNetwork(kQueryCompanies, seed + 1);
    in.direct_sources =
        Distinct(spec.direct_queries_per_insert * spec.inserts_per_round,
                 kQueryCompanies, &rng);
  }
  return in;
}

// ---------------------------------------------------------------------------
// The session oracle: the workload's input as of each epoch.
// ---------------------------------------------------------------------------

class SessionOracle {
 public:
  SessionOracle(const Spec& spec, const Inputs& in) : spec_(spec), in_(in) {
    Reset();
  }

  void Reset() {
    graph_ = in_.graph;
    network_ = in_.network;
    last_dump_.reset();
  }

  void ApplyInsert(int i) {
    if (spec_.program == ProgramKind::kShortestPath) {
      graph_.arcs.push_back(in_.arc_inserts[i]);
    } else {
      network_.shares.push_back(in_.share_inserts[i]);
    }
  }

  Status CheckQuery(int source, const Rows& rows) const {
    if (spec_.program == ProgramKind::kShortestPath) {
      return CheckShortestPathQuery(rows, source,
                                    SingleSourceOracle(graph_, source), 0.0);
    }
    return CheckControlQuery(rows, source,
                             ControlOracle(network_).Solve(source), 1e-9);
  }

  /// The full model against the oracle, and the monotone step from the
  /// previous dump of the session.
  Status CheckDump(const std::string& text) {
    MAD_ASSIGN_OR_RETURN(Model model, ModelFromText(text));
    Status st;
    if (spec_.program == ProgramKind::kShortestPath) {
      st = CheckShortestPathModel(model, graph_, ShortestPathOracle(graph_),
                                  0.0);
    } else {
      // Dumps render reals with %g: six significant digits.
      st = CheckControlModel(model, network_, 1e-5);
    }
    if (!st.ok()) return st;
    if (last_dump_ != nullptr) {
      st = spec_.program == ProgramKind::kShortestPath
               ? CheckMonotoneStep(*last_dump_, model, "s",
                                   CostOrder::kMinReal)
               : CheckMonotoneStep(*last_dump_, model, "m",
                                   CostOrder::kSumReal);
      if (!st.ok()) return st;
    }
    last_dump_ = std::make_unique<Model>(std::move(model));
    return Status::OK();
  }

 private:
  const Spec& spec_;
  const Inputs& in_;
  Digraph graph_;
  Ownership network_;
  std::unique_ptr<Model> last_dump_;
};

Rows RowsFromJson(const Json& rows) {
  Rows out;
  for (const Json& row : rows.arr) {
    std::string key;
    for (const Json& k : row.At("key").arr) {
      if (!key.empty()) key.push_back(',');
      key += k.is_string() ? k.str : mad::FormatDouble(k.number);
    }
    const Json& cost = row.At("cost");
    out.emplace(std::move(key), cost.is_number() ? cost.number : 1.0);
  }
  return out;
}

// ---------------------------------------------------------------------------
// A madd session: ServerState in process, or behind Server + Client.
// ---------------------------------------------------------------------------

class Session {
 public:
  Session(std::string program_text, std::string data_dir,
          int64_t checkpoint_every, bool over_wire)
      : text_(std::move(program_text)),
        dir_(std::move(data_dir)),
        checkpoint_every_(checkpoint_every),
        over_wire_(over_wire) {}
  ~Session() { (void)Stop(); }

  /// Loads the program: from an empty data directory when `fresh`, else by
  /// recovery from the one the last session left. Returns the Load time.
  StatusOr<double> Start(bool fresh) {
    if (fresh) fs::remove_all(dir_);
    mad::server::ServerState::LoadOptions lo;
    lo.durability.data_dir = dir_;
    lo.durability.fsync = mad::server::FsyncPolicy::kNever;
    lo.durability.checkpoint_every_epochs = checkpoint_every_;
    lo.durability.checkpoint_every_bytes = 0;
    lo.durability.verify_recovery = true;
    const auto t0 = Clock::now();
    MAD_ASSIGN_OR_RETURN(std::unique_ptr<mad::server::ServerState> state,
                         mad::server::ServerState::Load(text_, lo));
    const double load_s = Since(t0);
    if (over_wire_) {
      MAD_ASSIGN_OR_RETURN(server_,
                           mad::server::Server::Start(std::move(state), {}));
      MAD_ASSIGN_OR_RETURN(client_, mad::server::Client::Connect(
                                        "127.0.0.1", server_->port()));
    } else {
      state_ = std::move(state);
    }
    return load_s;
  }

  StatusOr<Json> Call(const Json& request) {
    if (over_wire_) return client_.Call(request);
    if (state_ == nullptr) return Status::Internal("session not started");
    return state_->Handle(request);
  }

  Status Stop() {
    client_.Close();
    server_.reset();  // drains and joins every connection thread
    state_.reset();
    return Status::OK();
  }

  int64_t DataDirBytes() const {
    int64_t total = 0;
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(dir_, ec)) {
      if (e.is_regular_file()) total += static_cast<int64_t>(e.file_size());
    }
    return total;
  }

  const std::string& dir() const { return dir_; }

 private:
  std::string text_;
  std::string dir_;
  int64_t checkpoint_every_;
  bool over_wire_;
  std::unique_ptr<mad::server::ServerState> state_;
  std::unique_ptr<mad::server::Server> server_;
  mad::server::Client client_;
};

Json Request(const char* verb) {
  Json j = Json::Object();
  j.Set("verb", Json::Str(verb));
  return j;
}

Json InsertRequest(const std::string& facts) {
  Json j = Request("insert");
  j.Set("facts", Json::Str(facts));
  return j;
}

Json QueryRequest(const std::string& atom) {
  Json j = Request("query");
  j.Set("atom", Json::Str(atom));
  return j;
}

Status ResponseOk(const StatusOr<Json>& r, const char* what) {
  if (!r.ok()) return r.status();
  if (!r->At("ok").is_bool() || !r->At("ok").boolean) {
    return Status::Internal(StrPrintf("%s failed: %s", what, r->Dump().c_str()));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The mondl path: program text with facts in, rendered least model out.
// ---------------------------------------------------------------------------

StatusOr<std::string> EvaluateText(const std::string& text) {
  MAD_ASSIGN_OR_RETURN(mad::datalog::Program program,
                       mad::datalog::ParseProgram(text));
  mad::core::Engine engine(program);
  MAD_ASSIGN_OR_RETURN(mad::core::EvalResult result, engine.Run());
  return result.db.ToString();
}

/// The frozen EDB of the batch-control query network and the engine that
/// answers point queries over a read-only share of it, as madd's query verb
/// does over a published snapshot.
struct QueryNetwork {
  std::unique_ptr<mad::datalog::Program> program;
  std::unique_ptr<mad::core::Engine> engine;
  mad::datalog::Database frozen;

  Status Build(const Ownership& net) {
    MAD_ASSIGN_OR_RETURN(
        mad::datalog::Program p,
        mad::datalog::ParseProgram(mad::workloads::kCompanyControlProgram));
    program = std::make_unique<mad::datalog::Program>(std::move(p));
    const mad::datalog::PredicateInfo* s = program->FindPredicate("s");
    mad::datalog::Database edb;
    for (const Share& share : net.shares) {
      mad::datalog::Fact f;
      f.pred = s;
      f.key = {mad::datalog::Value::Symbol("c" + std::to_string(share.owner)),
               mad::datalog::Value::Symbol("c" +
                                           std::to_string(share.company))};
      f.cost = mad::datalog::Value::Real(share.fraction);
      MAD_RETURN_IF_ERROR(edb.AddFact(f));
    }
    frozen = edb.Snapshot();
    engine = std::make_unique<mad::core::Engine>(*program);
    return Status::OK();
  }

  StatusOr<mad::core::QueryResult> Query(int source) const {
    MAD_ASSIGN_OR_RETURN(
        mad::datalog::Atom atom,
        mad::datalog::ParseQueryAtom(
            *program, QueryAtom(ProgramKind::kCompanyControl, source)));
    mad::core::QueryOptions qopts;
    qopts.mode = mad::core::QueryOptions::Mode::kDemand;
    return engine->Query(atom, frozen.ShareForRead(), qopts);
  }
};

double PeakRssMiB() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// End-to-end run
// ---------------------------------------------------------------------------

/// Counts and check failures, shared by both kinds of run.
class Outcome {
 protected:
  void Check(const Status& st, const char* what) {
    if (st.ok()) return;
    result_.correct = false;
    Note(StrPrintf("check failed (%s): %s", what, st.ToString().c_str()));
  }
  /// Keeps the first few messages, for stderr.
  void Note(std::string msg) {
    if (result_.errors.size() < 8) result_.errors.push_back(std::move(msg));
  }

  RunResult result_;
};

class EndToEnd : public Outcome {
 public:
  EndToEnd(const Spec& spec, const RunOptions& opts)
      : spec_(spec), opts_(opts), in_(MakeInputs(spec, opts.seed)),
        oracle_(spec, in_) {}

  StatusOr<RunResult> Run() {
    // --- set-up: inputs (made in the constructor), warm-up, first rewrite.
    if (spec_.eval_every > 0) {
      auto warm = EvaluateText(in_.program_text);
      if (!Op(warm.status(), "warm-up evaluation")) return Fail();
      reference_render_ = std::move(warm).value();
    }
    if (spec_.direct_queries_per_insert > 0) {
      MAD_RETURN_IF_ERROR(queries_.Build(in_.query_network));
      auto first = queries_.Query(in_.direct_sources[0]);
      if (!Op(first.status(), "first demand query")) return Fail();
    }
    {
      // Warm-up load (the session's own loads are timed operations).
      Session warm(in_.program_text, DataDir("warmup"), spec_.checkpoint_every,
                   false);
      auto loaded = warm.Start(/*fresh=*/true);
      if (!Op(loaded.status(), "warm-up load")) return Fail();
      warm.Stop();
      fs::remove_all(warm.dir());
    }
    setup_s_ = Since(opts_.process_start);

    // --- measured rounds, each the same sequence of operations.
    // A round starts only if it should end within --seconds, judged by the
    // longest round so far, so a run lasts about --seconds, not up to a
    // round longer.
    const auto t0 = Clock::now();
    int rounds = 0;
    double longest_round_s = 0;
    while (rounds == 0 || Since(t0) + longest_round_s < opts_.seconds) {
      const auto round_start = Clock::now();
      if (!RunRound(rounds)) break;
      longest_round_s = std::max(longest_round_s, Since(round_start));
      ++rounds;
      if (Since(opts_.process_start) > 120) break;  // stay inside 180 s
    }
    const double measured_s = Since(t0);

    // Checks deferred out of set-up: the warm-up evaluation's full model.
    if (spec_.eval_every > 0) {
      Check(CheckEvalModel(), "evaluated model");
    }
    fs::remove_all(DataDir("session"));
    peak_rss_mb_ = PeakRssMiB();

    AddMetrics(&result_, rounds, measured_s);
    return result_;
  }

 private:
  std::string DataDir(const char* what) const {
    return opts_.out_dir + "/" + spec_.name + "-" + what;
  }

  /// Counts one attempted operation; false (and counted failed) on error.
  bool Op(const Status& st, const char* what) {
    ++result_.attempted;
    if (st.ok()) return true;
    ++result_.failed;
    Note(StrPrintf("%s: %s", what, st.ToString().c_str()));
    return false;
  }
  StatusOr<RunResult> Fail() {
    return Status::Internal(result_.errors.empty() ? "set-up failed"
                                                : result_.errors[0]);
  }

  Status CheckEvalModel() const {
    MAD_ASSIGN_OR_RETURN(Model model, ModelFromText(reference_render_));
    if (spec_.program == ProgramKind::kShortestPath) {
      return CheckShortestPathModel(model, in_.graph,
                                    ShortestPathOracle(in_.graph), 0.0);
    }
    // The rendering has %g precision; the same model at full precision is
    // checked to 1e-9 below.
    MAD_RETURN_IF_ERROR(CheckControlModel(model, in_.network, 1e-5));
    MAD_ASSIGN_OR_RETURN(mad::datalog::Program program,
                         mad::datalog::ParseProgram(in_.program_text));
    mad::core::Engine engine(program);
    MAD_ASSIGN_OR_RETURN(mad::core::EvalResult result, engine.Run());
    return CheckControlModel(ModelFromDatabase(result.db), in_.network, 1e-9);
  }

  void TimedEval() {
    const auto t0 = Clock::now();
    auto render = EvaluateText(in_.program_text);
    const double s = Since(t0);
    if (!Op(render.status(), "evaluation")) return;
    eval_.Add(0, s);
    Check(CheckIdentical(reference_render_, *render),
          "evaluation vs. warm-up rendering");
  }

  void TimedDirectQueries(int insert_index, bool first_round) {
    for (int j = 0; j < spec_.direct_queries_per_insert; ++j) {
      const int op = insert_index * spec_.direct_queries_per_insert + j;
      const int source = in_.direct_sources[op];
      const auto t0 = Clock::now();
      auto result = queries_.Query(source);
      const double s = Since(t0);
      if (!Op(result.status(), "direct query")) continue;
      query_.Add(op, s);
      std::string text = result->ToString();
      if (first_round) {
        if (!query_oracle_) {
          query_oracle_ = std::make_unique<ControlOracle>(in_.query_network);
        }
        Check(CheckControlQuery(RowsFromFacts(result->rows), source,
                                query_oracle_->Solve(source), 1e-9),
              "direct query");
        direct_answers_.push_back(std::move(text));
      } else {
        Check(CheckIdentical(direct_answers_[op], text),
              "direct query vs. first round");
      }
    }
  }

  /// One round: a fresh session, the insert stream with its queries, dumps
  /// and interleaved batch work, then a restart by recovery.
  bool RunRound(int round) {
    const bool first = round == 0;
    Session session(in_.program_text, DataDir("session"),
                    spec_.checkpoint_every, spec_.over_wire);
    auto load = session.Start(/*fresh=*/true);
    if (!Op(load.status(), "load")) return false;
    if (spec_.over_wire) eval_.Add(0, *load);
    oracle_.Reset();

    std::string last_dump;
    int dump_op = 0;
    for (int i = 0; i < spec_.inserts_per_round; ++i) {
      auto t0 = Clock::now();
      auto ack = session.Call(InsertRequest(in_.insert_texts[i]));
      double s = Since(t0);
      if (!Op(ResponseOk(ack, "insert"), "insert")) return false;
      insert_.Add(i, s);
      if (first) {
        const bool least = ack->StrOr("completeness", "") == "least-model";
        Check(ack->IntOr("epoch", -1) == i + 1 && least
                  ? Status::OK()
                  : Status::Internal("unexpected insert ack " + ack->Dump()),
              "insert acknowledgement");
        oracle_.ApplyInsert(i);
      }

      for (size_t q = 0; q < in_.session_sources[i].size(); ++q) {
        const int source = in_.session_sources[i][q];
        t0 = Clock::now();
        auto answer =
            session.Call(QueryRequest(QueryAtom(spec_.program, source)));
        s = Since(t0);
        if (!Op(ResponseOk(answer, "query"), "query")) continue;
        const size_t op = i * in_.session_sources[i].size() + q;
        if (spec_.session_queries_timed) query_.Add(op, s);
        std::string rows = answer->At("rows").Dump();
        if (first) {
          Check(answer->At("memo_hit").is_null() &&
                        answer->At("used_demand").boolean
                    ? oracle_.CheckQuery(source, RowsFromJson(answer->At("rows")))
                    : Status::Internal("query was a memo hit or bailed out"),
                "session query");
          session_answers_.push_back(std::move(rows));
        } else {
          Check(CheckIdentical(session_answers_[op], rows),
                "session query vs. first round");
        }
      }

      if ((i + 1) % spec_.dump_every == 0) {
        t0 = Clock::now();
        auto dump = session.Call(Request("dump"));
        s = Since(t0);
        if (!Op(ResponseOk(dump, "dump"), "dump")) return false;
        dump_.Add(dump_op, s);
        last_dump = dump->At("model").str;
        if (first) {
          Check(oracle_.CheckDump(last_dump), "dump");
          dumps_.push_back(last_dump);
        } else {
          Check(CheckIdentical(dumps_[dump_op], last_dump),
                "dump vs. first round");
        }
        ++dump_op;
      }

      if (spec_.eval_every > 0 && (i + 1) % spec_.eval_every == 0) {
        TimedEval();
      }
      if (spec_.direct_queries_per_insert > 0) TimedDirectQueries(i, first);
      if (spec_.over_wire && (i + 1) % 5 == 0) {
        // More cold loads of the program into a fresh state, mid-stream.
        Session extra(in_.program_text, DataDir("extra"),
                      spec_.checkpoint_every, false);
        auto extra_load = extra.Start(/*fresh=*/true);
        if (Op(extra_load.status(), "load")) eval_.Add(0, *extra_load);
        extra.Stop();
        fs::remove_all(extra.dir());
      }
    }
    session.Stop();
    data_dir_bytes_ = static_cast<double>(session.DataDirBytes());

    // Restart by recovery (checkpoint, WAL replay, verification), twice:
    // the second recovers what the first left.
    for (int k = 0; k < 2; ++k) {
      auto rec = session.Start(/*fresh=*/false);
      if (!Op(rec.status(), "recovery")) return false;
      recover_.Add(0, *rec);
      auto dump = session.Call(Request("dump"));
      if (Op(ResponseOk(dump, "dump"), "dump after recovery")) {
        Check(CheckIdentical(last_dump, dump->At("model").str),
              "recovered model vs. pre-restart dump");
      }
      session.Stop();
    }
    return true;
  }

  void AddMetrics(RunResult* r, int rounds, double measured_s) {
    struct Gated {
      const char* name;
      const char* unit;
      const Series* series;
      double scale;
    };
    const Gated gated[] = {
        {"eval_s", "s", &eval_, 1.0},
        {"query_p50_ms", "ms", &query_, 1e3},
        {"insert_p50_ms", "ms", &insert_, 1e3},
        {"dump_ms", "ms", &dump_, 1e3},
        {"recover_s", "s", &recover_, 1.0},
    };
    Json details = Json::Object();
    details.Set("workload", Json::Str(spec_.name));
    details.Set("rounds", Json::Int(rounds));
    details.Set("measured_s", Json::Double(measured_s));
    r->metrics.push_back({"setup_s", setup_s_, "s"});
    Json setup = Json::Object();
    setup.Set("estimate", Json::Double(setup_s_));
    details.Set("setup_s", std::move(setup));
    for (const Gated& g : gated) {
      const std::vector<double> all = g.series->All();
      const double estimate = g.series->Estimate() * g.scale;
      r->metrics.push_back({g.name, estimate, g.unit});
      Json d = Json::Object();
      d.Set("estimate", Json::Double(estimate));
      d.Set("median", Json::Double(Quantile(all, 0.5) * g.scale));
      // The highest percentile with at least ten samples beyond it, capped
      // at p90; none below forty samples.
      if (all.size() >= 40) {
        const double q = std::min(0.9, 1.0 - 10.0 / static_cast<double>(all.size()));
        d.Set("tail_quantile", Json::Double(q));
        d.Set("tail", Json::Double(Quantile(all, q) * g.scale));
      }
      d.Set("samples", Json::Int(static_cast<int64_t>(all.size())));
      details.Set(g.name, std::move(d));
    }
    r->metrics.push_back({"data_dir_bytes", data_dir_bytes_, "bytes"});
    r->metrics.push_back({"peak_rss_mb", peak_rss_mb_, "MiB"});
    r->details = details.Dump();
  }

  const Spec& spec_;
  const RunOptions& opts_;
  Inputs in_;
  SessionOracle oracle_;
  QueryNetwork queries_;
  std::unique_ptr<ControlOracle> query_oracle_;

  std::string reference_render_;
  std::vector<std::string> session_answers_;
  std::vector<std::string> direct_answers_;
  std::vector<std::string> dumps_;

  Series eval_, query_, insert_, dump_, recover_;
  double setup_s_ = 0;
  double peak_rss_mb_ = 0;
  double data_dir_bytes_ = 0;

};

// ---------------------------------------------------------------------------
// Traced run: the same inputs and request stream, replayed against each
// layer's public functions with a span around every call.
// ---------------------------------------------------------------------------

class Traced : public Outcome {
 public:
  Traced(const Spec& spec, const RunOptions& opts)
      : spec_(spec), opts_(opts), in_(MakeInputs(spec, opts.seed)),
        oracle_(spec, in_) {}

  StatusOr<RunResult> Run() {
    if (spec_.direct_queries_per_insert > 0) {
      MAD_RETURN_IF_ERROR(queries_.Build(in_.query_network));
    }
    const auto t0 = Clock::now();
    int rounds = 0;
    double longest_round_s = 0;
    while (rounds == 0 || Since(t0) + longest_round_s < opts_.seconds) {
      const auto round_start = Clock::now();
      Status st = Round(rounds);
      longest_round_s = std::max(longest_round_s, Since(round_start));
      ++result_.attempted;
      if (!st.ok()) {
        ++result_.failed;
        Note(st.ToString());
        break;
      }
      ++rounds;
      if (Since(opts_.process_start) > 120) break;
    }
    const std::string spans =
        StrPrintf("%s/spans-%s-%llu.jsonl", opts_.out_dir.c_str(), spec_.name,
                  static_cast<unsigned long long>(opts_.seed));
    MAD_RETURN_IF_ERROR(tr_.Write(spans));
    fs::remove_all(Dir("writer"));
    fs::remove_all(Dir("inproc"));
    fs::remove_all(Dir("wire"));

    AddMetrics(&result_);
    Json details = Json::Object();
    details.Set("workload", Json::Str(spec_.name));
    details.Set("rounds", Json::Int(rounds));
    details.Set("spans_file", Json::Str(spans));
    // For the tracing overhead: the traced mondl path (compare eval_s's
    // plain median of an untraced run) and the cost of one span.
    details.Set("traced_eval_ms", Json::Double(MedianOf("eval", 1e3)));
    details.Set("span_cost_ns", Json::Double(SpanCostNs()));
    result_.details = details.Dump();
    return result_;
  }

 private:
  std::string Dir(const char* what) const {
    return opts_.out_dir + "/" + spec_.name + "-trace-" + what;
  }

  Status Round(int round) {
    MAD_RETURN_IF_ERROR(Batch());
    MAD_RETURN_IF_ERROR(WriterReplay(round));
    return ServerReplay();
  }

  /// The mondl path, one public call at a time, then the parallel runs.
  Status Batch() {
    ScopedSpan eval(&tr_, "eval");
    StatusOr<mad::datalog::Program> parsed = Status::Internal("unparsed");
    {
      ScopedSpan s(&tr_, "datalog.parse");
      parsed = mad::datalog::ParseProgram(in_.program_text);
    }
    MAD_RETURN_IF_ERROR(parsed.status());
    const mad::datalog::Program& program = *parsed;
    mad::analysis::DependencyGraph graph(program);
    mad::datalog::Database edb;
    MAD_RETURN_IF_ERROR(edb.AddFacts(program));
    {
      ScopedSpan s(&tr_, "analysis.check");
      mad::analysis::ProgramCheckResult check =
          mad::analysis::CheckProgram(program, graph, "", &edb);
      MAD_RETURN_IF_ERROR(check.overall());
    }
    {
      ScopedSpan s(&tr_, "analysis.plan");
      mad::analysis::plan::PlanProgram(
          program, graph,
          mad::analysis::plan::CardinalityEstimates::FromDatabase(program,
                                                                  edb));
    }
    mad::core::Engine engine(program);
    StatusOr<mad::core::EvalResult> result = Status::Internal("not run");
    {
      ScopedSpan s(&tr_, "core.run");
      result = engine.Run();
    }
    MAD_RETURN_IF_ERROR(result.status());
    const mad::core::EvalStats& st = result->stats;
    tr_.Count("core.rounds", static_cast<double>(st.iterations));
    tr_.Count("core.derivations", static_cast<double>(st.derivations));
    tr_.Count("core.rule_evaluations",
              static_cast<double>(st.rule_evaluations));
    tr_.Count("core.subgoal_evals", static_cast<double>(st.subgoal_evals));
    tr_.Count("core.index_reuses", static_cast<double>(st.index_reuses));
    tr_.Count("core.useful_merges",
              static_cast<double>(st.merges_new + st.merges_increased));
    std::string render;
    {
      ScopedSpan s(&tr_, "datalog.render");
      render = result->db.ToString();
    }
    tr_.Count("datalog.model_rows",
              static_cast<double>(result->db.TotalRows()));
    tr_.Count("datalog.model_bytes",
              static_cast<double>(result->db.ApproxBytes()));
    eval.Close();

    for (int threads : {2, 4}) {
      mad::core::EvalOptions o;
      o.num_threads = threads;
      mad::core::Engine parallel(program, o);
      StatusOr<mad::core::EvalResult> pr = Status::Internal("not run");
      {
        ScopedSpan s(&tr_, StrPrintf("core.run_t%d", threads));
        pr = parallel.Run();
      }
      MAD_RETURN_IF_ERROR(pr.status());
      Check(CheckIdentical(render, pr->db.ToString()),
            "parallel vs. serial model");
    }
    return Status::OK();
  }

  /// What the insert verb does, call by call, plus a twin model that is
  /// never snapshotted (the copy-on-write reference); then recovery.
  Status WriterReplay(int round) {
    const std::string dir = Dir("writer");
    fs::remove_all(dir);
    fs::create_directories(dir);
    MAD_ASSIGN_OR_RETURN(mad::datalog::Program parsed,
                         mad::datalog::ParseProgram(in_.program_text));
    mad::datalog::Program& program = parsed;
    mad::core::Engine engine(program);
    MAD_ASSIGN_OR_RETURN(mad::core::EvalResult model, engine.Run());
    MAD_ASSIGN_OR_RETURN(mad::core::EvalResult twin, engine.Run());
    mad::datalog::Database base;
    MAD_RETURN_IF_ERROR(base.AddFacts(program));
    mad::datalog::Database published = model.db.Snapshot();
    mad::datalog::Database published_base = base.Snapshot();
    mad::util::IoHooks* hooks = mad::util::DefaultIoHooks();
    MAD_ASSIGN_OR_RETURN(
        mad::server::WalWriter wal,
        mad::server::WalWriter::Create(dir, 1, mad::server::FsyncPolicy::kNever,
                                       hooks));
    std::string history;
    int64_t wal_bytes = 0;
    oracle_.Reset();

    // The demand rewrite of the timed query kind, once per round.
    {
      const mad::datalog::Program* qprog =
          spec_.session_queries_timed ? &program : queries_.program.get();
      const mad::analysis::DependencyGraph& qgraph =
          spec_.session_queries_timed ? engine.graph()
                                      : queries_.engine->graph();
      const int source = spec_.session_queries_timed
                             ? in_.session_sources[0][0]
                             : in_.direct_sources[0];
      MAD_ASSIGN_OR_RETURN(
          mad::datalog::Atom atom,
          mad::datalog::ParseQueryAtom(*qprog,
                                       QueryAtom(spec_.program, source)));
      ScopedSpan s(&tr_, "analysis.demand_rewrite");
      bool widened = false;
      mad::analysis::demand::DemandRewrite rw =
          mad::analysis::demand::RewriteForPattern(
              *qprog, qgraph,
              mad::analysis::demand::PatternForQuery(atom, &widened));
      if (!rw.ok) return Status::Internal("demand rewrite bailed out");
    }

    for (int i = 0; i < spec_.inserts_per_round; ++i) {
      ScopedSpan insert(&tr_, "insert", i);
      const std::string& text = in_.insert_texts[i];
      StatusOr<std::vector<mad::datalog::Fact>> facts =
          Status::Internal("unparsed");
      {
        ScopedSpan s(&tr_, "datalog.parse_facts", i);
        facts = mad::datalog::ParseFacts(&program, text);
      }
      MAD_RETURN_IF_ERROR(facts.status());
      {
        ScopedSpan s(&tr_, "analysis.update_safety", i);
        MAD_RETURN_IF_ERROR(mad::analysis::AnalyzeUpdateSafety(program).basic);
      }
      {
        mad::server::WalRecord rec;
        rec.epoch = i + 1;
        rec.facts_text = text;
        wal_bytes += static_cast<int64_t>(
            mad::server::EncodeWalRecord(rec).size());
        ScopedSpan s(&tr_, "server.wal_append", i);
        MAD_RETURN_IF_ERROR(wal.Append(rec));
      }
      StatusOr<mad::core::EvalStats> upd = Status::Internal("not run");
      {
        ScopedSpan s(&tr_, "core.update", i);
        upd = engine.Update(&model, *facts);
      }
      MAD_RETURN_IF_ERROR(upd.status());
      tr_.Count("core.update_derivations",
                static_cast<double>(upd->derivations));
      {
        ScopedSpan s(&tr_, "core.update_unshared", i);
        MAD_RETURN_IF_ERROR(engine.Update(&twin, *facts).status());
      }
      for (const mad::datalog::Fact& f : *facts) {
        MAD_RETURN_IF_ERROR(base.AddFact(f));
      }
      {
        mad::datalog::Database next, next_base;
        {
          ScopedSpan s(&tr_, "datalog.snapshot", i);
          next = model.db.Snapshot();
          next_base = base.Snapshot();
        }
        // Dropping the previous snapshot frees the relations Update cloned;
        // that belongs to datalog.cow_clone_ms, not to the publish.
        published = std::move(next);
        published_base = std::move(next_base);
      }
      history += text;
      history.push_back('\n');
      oracle_.ApplyInsert(i);

      if ((i + 1) % spec_.checkpoint_every == 0) {
        ScopedSpan s(&tr_, "server.checkpoint", i);
        mad::server::CheckpointData ckpt;
        ckpt.epoch = i + 1;
        ckpt.program_text = in_.program_text;
        ckpt.facts_text = history;
        ckpt.completeness = "least-model";
        mad::server::DumpRelations(published, &ckpt);
        MAD_RETURN_IF_ERROR(mad::server::WriteCheckpoint(dir, ckpt, hooks));
        MAD_ASSIGN_OR_RETURN(
            wal, mad::server::WalWriter::Create(
                     dir, wal.seq() + 1, mad::server::FsyncPolicy::kNever,
                     hooks));
        (void)mad::server::PruneDataDir(dir, wal.seq(), ckpt.epoch);
        s.Close();
        tr_.Count("server.checkpoint_bytes",
                  static_cast<double>(fs::file_size(
                      dir + "/" + mad::server::CheckpointFileName(ckpt.epoch))));
      }

      for (int source : in_.session_sources[i]) {
        MAD_ASSIGN_OR_RETURN(
            mad::datalog::Atom atom,
            mad::datalog::ParseQueryAtom(program,
                                         QueryAtom(spec_.program, source)));
        mad::core::QueryOptions qopts;
        qopts.mode = mad::core::QueryOptions::Mode::kDemand;
        // batch-control times its direct queries below instead.
        std::unique_ptr<ScopedSpan> span;
        if (spec_.session_queries_timed) {
          span = std::make_unique<ScopedSpan>(&tr_, "core.query", i);
        }
        StatusOr<mad::core::QueryResult> q =
            engine.Query(atom, published_base.ShareForRead(), qopts);
        span.reset();
        MAD_RETURN_IF_ERROR(q.status());
        if (spec_.session_queries_timed) {
          tr_.Count("core.query_derivations",
                    static_cast<double>(q->stats.derivations));
        }
        if (round == 0) {
          Check(oracle_.CheckQuery(source, RowsFromFacts(q->rows)),
                "traced session query");
        }
      }
      for (int j = 0; j < spec_.direct_queries_per_insert; ++j) {
        const int source =
            in_.direct_sources[i * spec_.direct_queries_per_insert + j];
        StatusOr<mad::core::QueryResult> q = Status::Internal("not run");
        {
          ScopedSpan s(&tr_, "core.query", i);
          q = queries_.Query(source);
        }
        MAD_RETURN_IF_ERROR(q.status());
        tr_.Count("core.query_derivations",
                  static_cast<double>(q->stats.derivations));
      }

      if ((i + 1) % spec_.dump_every == 0) {
        std::string text_model = published.ToString();
        ScopedSpan s(&tr_, "server.json_encode_dump", i);
        Json j = Json::Object();
        j.Set("ok", Json::Bool(true));
        j.Set("verb", Json::Str("dump"));
        j.Set("epoch", Json::Int(i + 1));
        j.Set("model", Json::Str(std::move(text_model)));
        j.Set("completeness", Json::Str("least-model"));
        (void)j.Dump();  // the encoding is what this span times
      }
    }
    tr_.Count("server.wal_bytes", static_cast<double>(wal_bytes));
    tr_.Count("server.history_bytes", static_cast<double>(history.size()));
    final_model_ = model.db.ToString();
    if (round == 0) Check(oracle_.CheckDump(final_model_), "traced model");

    // Recovery from the writer's directory, phase by phase.
    StatusOr<mad::server::RecoveryPlan> plan = Status::Internal("not run");
    {
      ScopedSpan s(&tr_, "server.recovery_scan");
      plan = mad::server::PlanRecovery(dir);
    }
    MAD_RETURN_IF_ERROR(plan.status());
    MAD_ASSIGN_OR_RETURN(mad::datalog::Program rprog,
                         mad::datalog::ParseProgram(in_.program_text));
    mad::core::Engine rengine(rprog);
    MAD_ASSIGN_OR_RETURN(mad::core::EvalResult recovered, rengine.Run());
    std::string replayed_history;
    {
      ScopedSpan s(&tr_, "server.recovery_replay");
      if (plan->checkpoint.has_value()) {
        MAD_RETURN_IF_ERROR(mad::server::RestoreRelations(
            *plan->checkpoint, &rprog, &recovered.db));
        replayed_history = plan->checkpoint->facts_text;
      }
      for (const mad::server::WalRecord& rec : plan->replay) {
        MAD_ASSIGN_OR_RETURN(std::vector<mad::datalog::Fact> f,
                             mad::datalog::ParseFacts(&rprog, rec.facts_text));
        MAD_RETURN_IF_ERROR(rengine.Update(&recovered, f).status());
        replayed_history += rec.facts_text;
        replayed_history.push_back('\n');
      }
    }
    {
      ScopedSpan s(&tr_, "server.recovery_verify");
      MAD_ASSIGN_OR_RETURN(mad::core::EvalResult fresh, rengine.Run());
      MAD_ASSIGN_OR_RETURN(std::vector<mad::datalog::Fact> all,
                           mad::datalog::ParseFacts(&rprog, replayed_history));
      MAD_RETURN_IF_ERROR(rengine.Update(&fresh, all).status());
      Check(CheckIdentical(fresh.db.ToString(), recovered.db.ToString()),
            "recovery verification");
    }
    Check(CheckIdentical(final_model_, recovered.db.ToString()),
          "recovered vs. replayed model");
    return Status::OK();
  }

  /// The same request stream through ServerState::Handle in process and,
  /// on an identical twin, through Server + Client over loopback.
  Status ServerReplay() {
    Session inproc(in_.program_text, Dir("inproc"), spec_.checkpoint_every,
                   false);
    Session wire(in_.program_text, Dir("wire"), spec_.checkpoint_every, true);
    MAD_RETURN_IF_ERROR(inproc.Start(/*fresh=*/true).status());
    MAD_RETURN_IF_ERROR(wire.Start(/*fresh=*/true).status());
    auto both = [&](const Json& req, const std::string& span, int64_t id)
        -> StatusOr<Json> {
      StatusOr<Json> a = Status::Internal("not run");
      double handle_s = 0;
      {
        ScopedSpan s(&tr_, span, id);
        a = inproc.Call(req);
        handle_s = s.Close();
      }
      MAD_RETURN_IF_ERROR(ResponseOk(a, span.c_str()));
      StatusOr<Json> b = Status::Internal("not run");
      double rtt_s = 0;
      {
        ScopedSpan s(&tr_, "server.client_call", id);
        b = wire.Call(req);
        rtt_s = s.Close();
      }
      MAD_RETURN_IF_ERROR(ResponseOk(b, "wire call"));
      wire_us_.push_back((rtt_s - handle_s) * 1e6);
      return b;
    };
    std::string served;
    for (int i = 0; i < spec_.inserts_per_round; ++i) {
      MAD_RETURN_IF_ERROR(
          both(InsertRequest(in_.insert_texts[i]), "server.handle_insert", i)
              .status());
      for (int source : in_.session_sources[i]) {
        MAD_RETURN_IF_ERROR(
            both(QueryRequest(QueryAtom(spec_.program, source)),
                 "server.handle_query", i)
                .status());
      }
      if ((i + 1) % spec_.dump_every == 0 ||
          i + 1 == spec_.inserts_per_round) {
        MAD_ASSIGN_OR_RETURN(Json d,
                             both(Request("dump"), "server.handle_dump", i));
        served = d.At("model").str;
      }
    }
    Check(CheckIdentical(served, final_model_),
          "served model vs. replayed model");
    inproc.Stop();
    wire.Stop();
    return Status::OK();
  }

  /// Mean cost of opening and closing one span, on a recorder of its own.
  static double SpanCostNs() {
    constexpr int kSpans = 100000;
    Tracer t;
    const auto t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i) ScopedSpan s(&t, "core.run", i);
    return Since(t0) * 1e9 / kSpans;
  }

  double MedianOf(const std::string& span, double scale) const {
    return Quantile(tr_.Durations(span), 0.5) * scale;
  }
  double MedianCount(const std::string& name) const {
    return Quantile(tr_.Counts(name), 0.5);
  }

  void AddMetrics(RunResult* r) const {
    auto add = [&](const char* name, double v, const char* unit) {
      r->metrics.push_back({name, v, unit});
    };
    // Copy-on-write cost: Update right after a Snapshot minus Update of the
    // same facts on the never-shared twin, per insert.
    std::vector<double> shared = tr_.Durations("core.update");
    std::vector<double> unshared = tr_.Durations("core.update_unshared");
    std::vector<double> cow;
    for (size_t i = 0; i < shared.size() && i < unshared.size(); ++i) {
      cow.push_back(shared[i] - unshared[i]);
    }
    const double run_ms = MedianOf("core.run", 1e3);
    const double derivations = MedianCount("core.derivations");

    add("datalog.parse_ms", MedianOf("datalog.parse", 1e3), "ms");
    add("datalog.render_ms", MedianOf("datalog.render", 1e3), "ms");
    add("datalog.parse_facts_us", MedianOf("datalog.parse_facts", 1e6), "us");
    add("datalog.snapshot_us", MedianOf("datalog.snapshot", 1e6), "us");
    add("datalog.cow_clone_ms", Quantile(cow, 0.5) * 1e3, "ms");
    add("datalog.model_rows", MedianCount("datalog.model_rows"), "count");
    add("datalog.model_bytes", MedianCount("datalog.model_bytes"), "bytes");
    add("analysis.check_ms", MedianOf("analysis.check", 1e3), "ms");
    add("analysis.plan_ms", MedianOf("analysis.plan", 1e3), "ms");
    add("analysis.update_safety_us", MedianOf("analysis.update_safety", 1e6),
        "us");
    add("analysis.demand_rewrite_ms", MedianOf("analysis.demand_rewrite", 1e3),
        "ms");
    add("core.run_ms", run_ms, "ms");
    add("core.rounds", MedianCount("core.rounds"), "count");
    add("core.derivations", derivations, "count");
    add("core.rule_evaluations", MedianCount("core.rule_evaluations"),
        "count");
    add("core.subgoal_evals", MedianCount("core.subgoal_evals"), "count");
    add("core.index_reuses", MedianCount("core.index_reuses"), "count");
    add("core.ns_per_derivation",
        derivations > 0 ? run_ms * 1e6 / derivations : 0, "ns");
    add("core.useful_merge_ratio",
        derivations > 0 ? MedianCount("core.useful_merges") / derivations : 0,
        "ratio");
    add("core.update_ms", MedianOf("core.update", 1e3), "ms");
    add("core.update_derivations", MedianCount("core.update_derivations"),
        "count");
    add("core.query_ms", MedianOf("core.query", 1e3), "ms");
    add("core.query_derivations", MedianCount("core.query_derivations"),
        "count");
    add("core.run_t2_ms", MedianOf("core.run_t2", 1e3), "ms");
    add("core.run_t4_ms", MedianOf("core.run_t4", 1e3), "ms");
    add("server.handle_insert_us", MedianOf("server.handle_insert", 1e6),
        "us");
    add("server.handle_query_us", MedianOf("server.handle_query", 1e6), "us");
    add("server.handle_dump_us", MedianOf("server.handle_dump", 1e6), "us");
    add("server.wire_us", Quantile(wire_us_, 0.5), "us");
    add("server.json_encode_dump_ms",
        MedianOf("server.json_encode_dump", 1e3), "ms");
    add("server.wal_append_us", MedianOf("server.wal_append", 1e6), "us");
    add("server.wal_bytes", MedianCount("server.wal_bytes"), "bytes");
    add("server.checkpoint_ms", MedianOf("server.checkpoint", 1e3), "ms");
    add("server.checkpoint_bytes", MedianCount("server.checkpoint_bytes"),
        "bytes");
    add("server.history_bytes", MedianCount("server.history_bytes"), "bytes");
    add("server.recovery_scan_ms", MedianOf("server.recovery_scan", 1e3),
        "ms");
    add("server.recovery_replay_ms", MedianOf("server.recovery_replay", 1e3),
        "ms");
    add("server.recovery_verify_ms", MedianOf("server.recovery_verify", 1e3),
        "ms");
  }

  const Spec& spec_;
  const RunOptions& opts_;
  Inputs in_;
  SessionOracle oracle_;
  QueryNetwork queries_;
  Tracer tr_;
  std::string final_model_;
  std::vector<double> wire_us_;

};

}  // namespace

bool IsWorkload(const std::string& name) { return FindSpec(name) != nullptr; }

StatusOr<RunResult> RunWorkload(const RunOptions& options) {
  const Spec* spec = FindSpec(options.workload);
  if (spec == nullptr) {
    return Status::InvalidArgument("unknown workload " + options.workload);
  }
  fs::create_directories(options.out_dir);
  if (options.trace) {
    Traced run(*spec, options);
    return run.Run();
  }
  EndToEnd run(*spec, options);
  return run.Run();
}

}  // namespace perfbench
