// The benchmark's own test: every output check must accept the engine's
// model and reject a perturbed one (one cost moved, one key dropped, one key
// added). Run it with `python3 perfbench/run.py --selftest`.

#include <cstdio>
#include <functional>
#include <string>

#include "core/engine.h"
#include "datalog/parser.h"
#include "oracle.h"
#include "util/string_util.h"

namespace {

using namespace perfbench;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// The check accepts `good` and rejects each of the three perturbations.
void ExpectRejects(const std::string& name, const Rows& good,
                   const std::string& added_key,
                   const std::function<Status(const Rows&)>& check,
                   double moved_by) {
  Expect(check(good).ok(), name + ": accepts the engine's answer");
  if (moved_by != 0) {  // cost-free predicates have no cost to move
    Rows moved = good;
    moved.begin()->second += moved_by;
    Expect(!check(moved).ok(), name + ": rejects one cost moved");
  }
  Rows dropped = good;
  dropped.erase(dropped.begin());
  Expect(!check(dropped).ok(), name + ": rejects one key dropped");
  Rows added = good;
  added.emplace(added_key, 1.0);
  Expect(!check(added).ok(), name + ": rejects one key added");
}

/// Same, for a check over a whole model, perturbing predicate `pred`.
void ExpectModelRejects(const std::string& name, const Model& good,
                        const std::string& pred, const std::string& added_key,
                        const std::function<Status(const Model&)>& check,
                        double moved_by) {
  ExpectRejects(
      name + " [" + pred + "]", good.at(pred), added_key,
      [&](const Rows& rows) {
        Model m = good;
        m[pred] = rows;
        return check(m);
      },
      moved_by);
}

StatusOr<mad::core::EvalResult> Evaluate(const std::string& text,
                                         mad::datalog::Program* program) {
  MAD_ASSIGN_OR_RETURN(*program, mad::datalog::ParseProgram(text));
  mad::core::Engine engine(*program);
  return engine.Run();
}

void ShortestPath() {
  Digraph g = MakeDigraph(12, 30, 5);
  mad::datalog::Program program;
  auto result = Evaluate(ShortestPathText(g), &program);
  Expect(result.ok(), "shortest path evaluates");
  if (!result.ok()) return;
  const Model model = ModelFromDatabase(result->db);
  const Distances dist = ShortestPathOracle(g);
  auto check = [&](const Model& m) {
    return CheckShortestPathModel(m, g, dist, 0.0);
  };
  ExpectModelRejects("shortest-path model", model, "s", "n0,n999", check,
                     0.25);
  ExpectModelRejects("shortest-path model", model, "path", "n0,n1,n999",
                     check, 0.25);

  auto text = ModelFromText(result->db.ToString());
  Expect(text.ok() && check(*text).ok(),
         "shortest-path model: the rendered dump parses and is accepted");

  // The answer to s(n3, Y, C): the engine's rows for that source.
  Rows rows;
  for (const auto& [key, cost] : model.at("s")) {
    if (key.rfind("n3,", 0) == 0) rows.emplace(key, cost);
  }
  const std::vector<double> from3 = SingleSourceOracle(g, 3);
  ExpectRejects("shortest-path query", rows, "n3,n999",
                [&](const Rows& r) {
                  return CheckShortestPathQuery(r, 3, from3, 0.0);
                },
                0.25);

  // The session property under min_real: a later model may only lower s.
  Model later = model;
  later["s"].begin()->second -= 0.25;
  Expect(CheckMonotoneStep(model, later, "s", CostOrder::kMinReal).ok(),
         "monotone step: accepts a lowered s cost");
  Model rose = model;
  rose["s"].begin()->second += 0.25;
  Expect(!CheckMonotoneStep(model, rose, "s", CostOrder::kMinReal).ok(),
         "monotone step: rejects a raised s cost");
  Model lost = model;
  lost["path"].erase(lost["path"].begin());
  Expect(!CheckMonotoneStep(model, lost, "s", CostOrder::kMinReal).ok(),
         "monotone step: rejects a lost key");
  Model before = model;
  before["s"].emplace("n0,n999", 1.0);
  Expect(!CheckMonotoneStep(before, model, "s", CostOrder::kMinReal).ok(),
         "monotone step: rejects a key the earlier model had in addition");

  // Recovery: byte identity with the pre-restart dump.
  const std::string dump = result->db.ToString();
  std::string moved = dump;
  moved[moved.find(')') - 1] ^= 1;
  std::string dropped = dump.substr(dump.find('\n') + 1);
  std::string added = dump + "s(n0, n999, 1).\n";
  Expect(CheckIdentical(dump, dump).ok(), "identity: accepts the same dump");
  Expect(!CheckIdentical(dump, moved).ok(), "identity: rejects a moved cost");
  Expect(!CheckIdentical(dump, dropped).ok(),
         "identity: rejects a dropped row");
  Expect(!CheckIdentical(dump, added).ok(), "identity: rejects an added row");
}

void CompanyControl() {
  Ownership net = MakeChainNetwork(2, 12, 9);
  Expect(ControlOracle::CrossCheckDense(net).ok(),
         "sparse control solver agrees with SolveCompanyControl");
  mad::datalog::Program program;
  auto result = Evaluate(CompanyControlText(net), &program);
  Expect(result.ok(), "company control evaluates");
  if (!result.ok()) return;
  const Model model = ModelFromDatabase(result->db);
  auto check = [&](const Model& m) {
    return CheckControlModel(m, net, 1e-9);
  };
  ExpectModelRejects("control model", model, "m", "c0,c999", check, 1e-6);
  ExpectModelRejects("control model", model, "c", "c0,c999", check, 0);

  Rows rows;
  for (const auto& [key, cost] : model.at("m")) {
    if (key.rfind("c0,", 0) == 0) rows.emplace(key, cost);
  }
  const ControlFrom from0 = ControlOracle(net).Solve(0);
  ExpectRejects("control query", rows, "c0,c999",
                [&](const Rows& r) {
                  return CheckControlQuery(r, 0, from0, 1e-9);
                },
                1e-6);

  Model fell = model;
  fell["m"].begin()->second -= 0.01;
  Expect(!CheckMonotoneStep(model, fell, "m", CostOrder::kSumReal).ok(),
         "monotone step: rejects a lowered m (sum_real)");
}

}  // namespace

int main() {
  ShortestPath();
  CompanyControl();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "OK" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
