#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// Seeded inputs for the benchmark workloads and the computations, made apart
// from the engine, that every output is checked against.
//
// A model is compared as plain data: predicate name -> "k1,k2,..." key ->
// numeric cost (1 for cost-free predicates). Models come either straight from
// a Database (full double precision) or from the rendered text a `dump`
// returns (Database::ToString prints reals with %g), so every check takes the
// tolerance that fits its source.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "datalog/ast.h"
#include "datalog/database.h"
#include "util/random.h"
#include "util/status.h"

namespace perfbench {

using mad::Status;
using mad::StatusOr;

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// One arc of a shortest-path graph. Weights are multiples of 1/4, so every
/// path length is exact in binary floating point and in the %g rendering.
struct Arc {
  int from = 0;
  int to = 0;
  double weight = 0;
};

struct Digraph {
  int nodes = 0;
  std::vector<Arc> arcs;
};

/// `nodes` nodes and `arcs` distinct random arcs (a multiple of `nodes`),
/// every node with the same in- and out-degree; weights in {1, 1.25, ...,
/// 10}. The shape and weights are the same for every seed; the seed names
/// the nodes and orders the arcs, so every seed does the same work.
Digraph MakeDigraph(int nodes, int arcs, uint64_t seed);
/// A random arc over the same node set (it may repeat an existing arc; the
/// min_real join keeps the lower weight).
Arc RandomArc(int nodes, mad::Random* rng);

std::string ArcFact(const Arc& a);
/// Example 2.6 followed by one `arc` fact per arc.
std::string ShortestPathText(const Digraph& g);

/// One holding of an ownership network: `owner` holds `fraction` of `company`.
struct Share {
  int owner = 0;
  int company = 0;
  double fraction = 0;
};

struct Ownership {
  int companies = 0;
  std::vector<Share> shares;
};

/// `chains` control chains of `length` companies each: every company but a
/// chain's head has a 0.6 majority holder (its predecessor), and every
/// company has two distinct minority holders (0.2 and 0.15) drawn at random
/// so that each company holds exactly two minority stakes. The control
/// relation is the chains' transitive closure, so the round count is fixed
/// by `length` and the work is nearly the same for every seed.
Ownership MakeChainNetwork(int chains, int length, uint64_t seed);
/// The sparse query network: company y has a 0.6 majority holder y-1 with
/// probability 0.7 and two distinct minority holders among 0..y-1.
Ownership MakeSparseNetwork(int companies, uint64_t seed);

std::string ShareFact(const Share& s);
/// Example 2.7 followed by one `s` fact per share.
std::string CompanyControlText(const Ownership& net);

// ---------------------------------------------------------------------------
// Models
// ---------------------------------------------------------------------------

using Rows = std::unordered_map<std::string, double>;
using Model = std::map<std::string, Rows>;

/// Every stored row of `db`, costs at full precision.
Model ModelFromDatabase(const mad::datalog::Database& db);
/// Parses Database::ToString output ("p(a, b, 1.5).\n" lines).
StatusOr<Model> ModelFromText(std::string_view text);
/// The rows of a point-query answer, keyed like a model.
Rows RowsFromFacts(const std::vector<mad::datalog::Fact>& facts);

// ---------------------------------------------------------------------------
// Oracles and checks. Each returns OK or a message naming the first
// mismatch; `tol` is the allowed relative difference of a cost.
// ---------------------------------------------------------------------------

/// All-pairs shortest non-empty path lengths (baselines::
/// AllPairsNonEmptyDijkstra); +inf where no path exists.
using Distances = std::vector<std::vector<double>>;
Distances ShortestPathOracle(const Digraph& g);
/// Single-source shortest non-empty path lengths from `source`.
std::vector<double> SingleSourceOracle(const Digraph& g, int source);

/// `arc`, `path` and `s` of Example 2.6 against the graph.
Status CheckShortestPathModel(const Model& model, const Digraph& g,
                              const Distances& dist, double tol);
/// The answer to s(n<source>, Y, C).
Status CheckShortestPathQuery(const Rows& rows, int source,
                              const std::vector<double>& dist, double tol);

/// Per-source control closure of Example 2.7, computed on a sparse network:
/// m[y] = sum of s(z, y) over z in {x} and the companies x controls.
struct ControlFrom {
  std::unordered_map<int, double> m;
  std::vector<int> controls;
};
class ControlOracle {
 public:
  explicit ControlOracle(const Ownership& net);
  ControlFrom Solve(int source) const;
  /// Dense cross-check for small networks (baselines::SolveCompanyControl).
  static Status CrossCheckDense(const Ownership& net);

 private:
  std::vector<std::vector<std::pair<int, double>>> out_;
};

/// `m` and `c` of Example 2.7 for every owner.
Status CheckControlModel(const Model& model, const Ownership& net,
                         double tol);
/// The answer to m(c<source>, Y, N).
Status CheckControlQuery(const Rows& rows, int source,
                         const ControlFrom& expected, double tol);

/// The direction in which a cost moves up the lattice order ⊑.
enum class CostOrder { kMinReal, kSumReal };

/// Properties of a monotone session: no key of `before` is missing from
/// `after`, and no cost of `pred` moves down ⊑ (under min_real a later model
/// may only lower a cost, under sum_real only raise it).
Status CheckMonotoneStep(const Model& before, const Model& after,
                         const std::string& pred, CostOrder order);
/// Byte identity of two renderings (the recovered model vs. the dump taken
/// before the restart).
Status CheckIdentical(std::string_view expected, std::string_view actual);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
