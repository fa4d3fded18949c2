#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <queue>
#include <set>
#include <utility>

#include "baselines/company_control.h"
#include "baselines/shortest_path.h"
#include "util/random.h"
#include "util/string_util.h"
#include "workloads/programs.h"

namespace perfbench {

using mad::StrPrintf;
using mad::datalog::Database;
using mad::datalog::Fact;
using mad::datalog::Relation;
using mad::datalog::Tuple;
using mad::datalog::Value;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Of the shapes seeds 1..5 draw, the one with the median derivation count.
constexpr uint64_t kGraphShapeSeed = 4;

std::string Node(int i) { return "n" + std::to_string(i); }
std::string Company(int i) { return "c" + std::to_string(i); }

bool Close(double expected, double actual, double tol) {
  if (expected == actual) return true;
  return std::fabs(expected - actual) <=
         tol * std::max(1.0, std::max(std::fabs(expected), std::fabs(actual)));
}

std::string JoinKey(const Tuple& key) {
  std::string out;
  for (size_t i = 0; i < key.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += key[i].ToString();
  }
  return out;
}

/// Compares one predicate's rows with the expected ones, key sets and costs.
Status CompareRows(const std::string& what, const Rows& expected,
                   const Rows* actual, double tol) {
  static const Rows kEmpty;
  if (actual == nullptr) actual = &kEmpty;
  for (const auto& [key, cost] : expected) {
    auto it = actual->find(key);
    if (it == actual->end()) {
      return Status::Internal(
          StrPrintf("%s: key (%s) missing", what.c_str(), key.c_str()));
    }
    if (!Close(cost, it->second, tol)) {
      return Status::Internal(StrPrintf("%s: key (%s) has cost %.17g, "
                                        "expected %.17g",
                                        what.c_str(), key.c_str(), it->second,
                                        cost));
    }
  }
  if (actual->size() != expected.size()) {
    for (const auto& [key, cost] : *actual) {
      if (expected.count(key) == 0) {
        return Status::Internal(StrPrintf("%s: unexpected key (%s)",
                                          what.c_str(), key.c_str()));
      }
    }
  }
  return Status::OK();
}

const Rows* Find(const Model& model, const std::string& pred) {
  auto it = model.find(pred);
  return it == model.end() ? nullptr : &it->second;
}

}  // namespace

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

namespace {

/// A random permutation p of 0..n-1 with ok(i, p[i]) for every i, repaired
/// by random swaps (callers forbid only a few values per position).
std::vector<int> ConstrainedPermutation(
    int n, const std::function<bool(int, int)>& ok, mad::Random* rng) {
  std::vector<int> p = rng->Permutation(n);
  for (int i = 0; i < n; ++i) {
    while (!ok(i, p[i])) {
      const int j = static_cast<int>(rng->Uniform(0, n - 1));
      if (ok(i, p[j]) && ok(j, p[i])) std::swap(p[i], p[j]);
    }
  }
  return p;
}

}  // namespace

Digraph MakeDigraph(int nodes, int arcs, uint64_t seed) {
  // The shape: the union of arcs/nodes random permutations without repeated
  // arcs, so every node has the same in- and out-degree and the graph is
  // strongly connected with near certainty. It is drawn from a fixed seed:
  // the work of evaluating shortest paths depends on the weights' layout
  // (between seeds of a free draw, derivations differ by up to 12%), and a
  // benchmark compared across seeds must do the same work for each.
  mad::Random shape(kGraphShapeSeed);
  Digraph g;
  g.nodes = nodes;
  std::set<std::pair<int, int>> seen;
  for (int k = 0; k < arcs / nodes; ++k) {
    std::vector<int> to = ConstrainedPermutation(
        nodes, [&](int u, int v) { return seen.count({u, v}) == 0; }, &shape);
    for (int u = 0; u < nodes; ++u) {
      seen.insert({u, to[u]});
      g.arcs.push_back(
          {u, to[u], static_cast<double>(shape.Uniform(4, 40)) / 4.0});
    }
  }
  // The seed names the nodes and orders the facts.
  mad::Random rng(seed);
  const std::vector<int> name = rng.Permutation(nodes);
  for (Arc& a : g.arcs) {
    a.from = name[a.from];
    a.to = name[a.to];
  }
  const std::vector<int> order = rng.Permutation(static_cast<int>(g.arcs.size()));
  std::vector<Arc> shuffled;
  shuffled.reserve(g.arcs.size());
  for (int i : order) shuffled.push_back(g.arcs[i]);
  g.arcs = std::move(shuffled);
  return g;
}

Arc RandomArc(int nodes, mad::Random* rng) {
  Arc a;
  a.from = static_cast<int>(rng->Uniform(0, nodes - 1));
  a.to = static_cast<int>(rng->Uniform(0, nodes - 1));
  a.weight = static_cast<double>(rng->Uniform(4, 40)) / 4.0;
  return a;
}

std::string ArcFact(const Arc& a) {
  return StrPrintf("arc(%s, %s, %s).", Node(a.from).c_str(),
                   Node(a.to).c_str(), mad::FormatDouble(a.weight).c_str());
}

std::string ShortestPathText(const Digraph& g) {
  std::string text = mad::workloads::kShortestPathProgram;
  for (const Arc& a : g.arcs) {
    text += ArcFact(a);
    text.push_back('\n');
  }
  return text;
}

namespace {

/// Two distinct minority holders of `company` drawn from [lo, hi], distinct
/// from the company itself and from `exclude` (its majority holder or -1).
std::pair<int, int> MinorityHolders(int company, int exclude, int lo, int hi,
                                    mad::Random* rng) {
  auto draw = [&](int other) {
    while (true) {
      int z = static_cast<int>(rng->Uniform(lo, hi));
      if (z != company && z != exclude && z != other) return z;
    }
  };
  int a = draw(-1);
  int b = draw(a);
  return {a, b};
}

}  // namespace

Ownership MakeChainNetwork(int chains, int length, uint64_t seed) {
  mad::Random rng(seed);
  Ownership net;
  net.companies = chains * length;
  const int n = net.companies;
  auto major = [&](int y) { return y % length > 0 ? y - 1 : -1; };
  // Minority holders come from two permutations, so every company holds
  // exactly two minority stakes and the model's size is the same for every
  // seed. A company never holds a second stake in itself or in a company
  // it already holds.
  std::vector<int> first = ConstrainedPermutation(
      n, [&](int y, int z) { return z != y && z != major(y); }, &rng);
  std::vector<int> second = ConstrainedPermutation(
      n,
      [&](int y, int z) { return z != y && z != major(y) && z != first[y]; },
      &rng);
  for (int y = 0; y < n; ++y) {
    if (major(y) >= 0) net.shares.push_back({major(y), y, 0.6});
    net.shares.push_back({first[y], y, 0.2});
    net.shares.push_back({second[y], y, 0.15});
  }
  return net;
}

Ownership MakeSparseNetwork(int companies, uint64_t seed) {
  mad::Random rng(seed);
  Ownership net;
  net.companies = companies;
  for (int y = 1; y < companies; ++y) {
    const bool majority = rng.Bernoulli(0.7);
    if (majority) net.shares.push_back({y - 1, y, 0.6});
    if (y < 3) continue;
    auto [a, b] =
        MinorityHolders(y, majority ? y - 1 : -1, 0, y - 1, &rng);
    net.shares.push_back({a, y, 0.2});
    net.shares.push_back({b, y, 0.15});
  }
  return net;
}

std::string ShareFact(const Share& s) {
  return StrPrintf("s(%s, %s, %s).", Company(s.owner).c_str(),
                   Company(s.company).c_str(),
                   mad::FormatDouble(s.fraction).c_str());
}

std::string CompanyControlText(const Ownership& net) {
  std::string text = mad::workloads::kCompanyControlProgram;
  for (const Share& s : net.shares) {
    text += ShareFact(s);
    text.push_back('\n');
  }
  return text;
}

// ---------------------------------------------------------------------------
// Models
// ---------------------------------------------------------------------------

Model ModelFromDatabase(const Database& db) {
  Model model;
  for (const auto& [_, rel] : db.relations()) {
    Rows& rows = model[rel->pred()->name];
    const bool has_cost = rel->pred()->has_cost;
    rows.reserve(rel->size());
    rel->ForEach([&](const Tuple& key, const Value& cost) {
      rows.emplace(JoinKey(key),
                   has_cost && cost.is_numeric() ? cost.AsDouble() : 1.0);
    });
  }
  return model;
}

StatusOr<Model> ModelFromText(std::string_view text) {
  Model model;
  size_t pos = 0;
  std::vector<std::string_view> args;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    const size_t open = line.find('(');
    if (open == std::string_view::npos || line.size() < open + 3 ||
        line.substr(line.size() - 2) != ").") {
      return Status::Internal(
          StrPrintf("unparsable model line '%.*s'",
                    static_cast<int>(line.size()), line.data()));
    }
    std::string_view body = line.substr(open + 1, line.size() - open - 3);
    args.clear();
    size_t a = 0;
    while (true) {
      size_t comma = body.find(", ", a);
      args.push_back(body.substr(a, comma == std::string_view::npos
                                        ? std::string_view::npos
                                        : comma - a));
      if (comma == std::string_view::npos) break;
      a = comma + 2;
    }
    // Symbols here never start with a digit or sign, so a numeric last
    // argument is the cost column.
    double cost = 1.0;
    size_t nkey = args.size();
    const std::string last(args.back());
    if (!last.empty() && (std::isdigit(static_cast<unsigned char>(last[0])) ||
                          last[0] == '-' || last == "inf")) {
      cost = std::strtod(last.c_str(), nullptr);
      --nkey;
    }
    std::string key;
    for (size_t i = 0; i < nkey; ++i) {
      if (i > 0) key.push_back(',');
      key.append(args[i]);
    }
    model[std::string(line.substr(0, open))].emplace(std::move(key), cost);
  }
  return model;
}

Rows RowsFromFacts(const std::vector<Fact>& facts) {
  Rows rows;
  for (const Fact& f : facts) {
    rows.emplace(JoinKey(f.key), f.cost.has_value() && f.cost->is_numeric()
                                     ? f.cost->AsDouble()
                                     : 1.0);
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Shortest paths
// ---------------------------------------------------------------------------

namespace {

mad::baselines::Graph ToGraph(const Digraph& g) {
  mad::baselines::Graph out;
  out.Resize(g.nodes);
  for (const Arc& a : g.arcs) out.AddEdge(a.from, a.to, a.weight);
  return out;
}

}  // namespace

Distances ShortestPathOracle(const Digraph& g) {
  return mad::baselines::AllPairsNonEmptyDijkstra(ToGraph(g));
}

std::vector<double> SingleSourceOracle(const Digraph& g, int source) {
  // Dijkstra whose frontier starts at the source's successors rather than
  // at the source: that gives lengths of paths with at least one arc.
  std::vector<std::vector<std::pair<int, double>>> adj(g.nodes);
  for (const Arc& a : g.arcs) adj[a.from].push_back({a.to, a.weight});
  std::vector<double> dist(g.nodes, kInf);
  using Item = std::pair<double, int>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> queue;
  for (auto [to, w] : adj[source]) {
    if (w < dist[to]) {
      dist[to] = w;
      queue.push({w, to});
    }
  }
  while (!queue.empty()) {
    auto [d, u] = queue.top();
    queue.pop();
    if (d > dist[u]) continue;
    for (auto [to, w] : adj[u]) {
      if (d + w < dist[to]) {
        dist[to] = d + w;
        queue.push({d + w, to});
      }
    }
  }
  return dist;
}

Status CheckShortestPathModel(const Model& model, const Digraph& g,
                              const Distances& dist, double tol) {
  // arc: the input, joined by min per (from, to).
  std::map<std::pair<int, int>, double> arcs;
  for (const Arc& a : g.arcs) {
    auto [it, fresh] = arcs.emplace(std::make_pair(a.from, a.to), a.weight);
    if (!fresh) it->second = std::min(it->second, a.weight);
  }
  Rows want_arc;
  std::vector<std::vector<std::pair<int, double>>> out(g.nodes);
  for (const auto& [ft, w] : arcs) {
    want_arc[Node(ft.first) + "," + Node(ft.second)] = w;
    out[ft.first].push_back({ft.second, w});
  }
  Status st = CompareRows("arc", want_arc, Find(model, "arc"), tol);
  if (!st.ok()) return st;

  // s(x, y): shortest non-empty path length, present iff finite.
  Rows want_s;
  for (int x = 0; x < g.nodes; ++x) {
    for (int y = 0; y < g.nodes; ++y) {
      if (dist[x][y] < kInf) want_s[Node(x) + "," + Node(y)] = dist[x][y];
    }
  }
  st = CompareRows("s", want_s, Find(model, "s"), tol);
  if (!st.ok()) return st;

  // path(x, direct, y) = arc; path(x, z, y) = s(x, z) + arc(z, y).
  Rows want_path;
  for (const auto& [ft, w] : arcs) {
    want_path[Node(ft.first) + ",direct," + Node(ft.second)] = w;
  }
  for (int x = 0; x < g.nodes; ++x) {
    for (int z = 0; z < g.nodes; ++z) {
      if (!(dist[x][z] < kInf)) continue;
      for (auto [y, w] : out[z]) {
        want_path[Node(x) + "," + Node(z) + "," + Node(y)] = dist[x][z] + w;
      }
    }
  }
  return CompareRows("path", want_path, Find(model, "path"), tol);
}

Status CheckShortestPathQuery(const Rows& rows, int source,
                              const std::vector<double>& dist, double tol) {
  Rows want;
  for (size_t y = 0; y < dist.size(); ++y) {
    if (dist[y] < kInf) {
      want[Node(source) + "," + Node(static_cast<int>(y))] = dist[y];
    }
  }
  return CompareRows(StrPrintf("s(%s, Y, C)", Node(source).c_str()), want,
                     &rows, tol);
}

// ---------------------------------------------------------------------------
// Company control
// ---------------------------------------------------------------------------

ControlOracle::ControlOracle(const Ownership& net) : out_(net.companies) {
  // Repeated (owner, company) facts join by max in sum_real's order.
  std::map<std::pair<int, int>, double> joined;
  for (const Share& s : net.shares) {
    auto [it, fresh] =
        joined.emplace(std::make_pair(s.owner, s.company), s.fraction);
    if (!fresh) it->second = std::max(it->second, s.fraction);
  }
  for (const auto& [oc, f] : joined) out_[oc.first].push_back({oc.second, f});
}

ControlFrom ControlOracle::Solve(int source) const {
  ControlFrom r;
  std::vector<int> pending;
  std::unordered_map<int, bool> controlled;
  auto absorb = [&](int z) {
    for (auto [y, f] : out_[z]) {
      double& m = r.m[y];
      m += f;
      if (m > 0.5 && !controlled[y]) {
        controlled[y] = true;
        r.controls.push_back(y);
        pending.push_back(y);
      }
    }
  };
  absorb(source);
  while (!pending.empty()) {
    int z = pending.back();
    pending.pop_back();
    // cv(X, X, Y) already counts the source's own shares.
    if (z != source) absorb(z);
  }
  return r;
}

Status ControlOracle::CrossCheckDense(const Ownership& net) {
  mad::baselines::OwnershipNetwork dense;
  dense.Resize(net.companies);
  for (const Share& s : net.shares) {
    double& cell = dense.shares[s.owner][s.company];
    cell = std::max(cell, s.fraction);
  }
  mad::baselines::ControlResult want =
      mad::baselines::SolveCompanyControl(dense);
  ControlOracle sparse(net);
  for (int x = 0; x < net.companies; ++x) {
    ControlFrom got = sparse.Solve(x);
    std::set<int> controls(got.controls.begin(), got.controls.end());
    for (int y = 0; y < net.companies; ++y) {
      auto it = got.m.find(y);
      const double m = it == got.m.end() ? 0.0 : it->second;
      if (!Close(want.controlled_fraction[x][y], m, 1e-9) ||
          want.controls[x][y] != (controls.count(y) > 0)) {
        return Status::Internal(StrPrintf(
            "sparse control solver disagrees with SolveCompanyControl at "
            "(c%d, c%d)",
            x, y));
      }
    }
  }
  return Status::OK();
}

Status CheckControlModel(const Model& model, const Ownership& net,
                         double tol) {
  ControlOracle oracle(net);
  Rows want_m;
  Rows want_c;
  for (int x = 0; x < net.companies; ++x) {
    ControlFrom r = oracle.Solve(x);
    const std::string owner = Company(x) + ",";
    for (const auto& [y, m] : r.m) want_m[owner + Company(y)] = m;
    for (int y : r.controls) want_c[owner + Company(y)] = 1.0;
  }
  Status st = CompareRows("m", want_m, Find(model, "m"), tol);
  if (!st.ok()) return st;
  return CompareRows("c", want_c, Find(model, "c"), tol);
}

Status CheckControlQuery(const Rows& rows, int source,
                         const ControlFrom& expected, double tol) {
  Rows want;
  for (const auto& [y, m] : expected.m) {
    want[Company(source) + "," + Company(y)] = m;
  }
  return CompareRows(StrPrintf("m(%s, Y, N)", Company(source).c_str()), want,
                     &rows, tol);
}

// ---------------------------------------------------------------------------
// Session properties
// ---------------------------------------------------------------------------

Status CheckMonotoneStep(const Model& before, const Model& after,
                         const std::string& pred, CostOrder order) {
  for (const auto& [name, rows] : before) {
    const Rows* later = Find(after, name);
    for (const auto& [key, cost] : rows) {
      const double* now = nullptr;
      if (later != nullptr) {
        auto it = later->find(key);
        if (it != later->end()) now = &it->second;
      }
      if (now == nullptr) {
        return Status::Internal(StrPrintf("%s(%s) disappeared", name.c_str(),
                                          key.c_str()));
      }
      const bool down = order == CostOrder::kMinReal ? *now > cost
                                                     : *now < cost;
      if (name == pred && down) {
        return Status::Internal(StrPrintf("%s(%s) moved down from %.17g to "
                                          "%.17g",
                                          name.c_str(), key.c_str(), cost,
                                          *now));
      }
    }
  }
  return Status::OK();
}

Status CheckIdentical(std::string_view expected, std::string_view actual) {
  if (expected == actual) return Status::OK();
  size_t i = 0;
  while (i < expected.size() && i < actual.size() && expected[i] == actual[i]) {
    ++i;
  }
  return Status::Internal(StrPrintf(
      "renderings differ at byte %zu (%zu vs %zu bytes)", i, expected.size(),
      actual.size()));
}

}  // namespace perfbench
