// Self-test of the benchmark's oracles on small hand-checked trees.
// Run: ctest --test-dir .bench_build (or .bench_build/oracle_test).

#include <algorithm>
#include <cstdio>
#include <string>

#include "oracle.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                           \
  do {                                                         \
    if (!(cond)) {                                             \
      std::fprintf(stderr, "%s:%d: FAILED %s\n", __FILE__,     \
                   __LINE__, #cond);                           \
      ++failures;                                              \
    }                                                          \
  } while (0)

using e2e::Cluster;
using e2e::ClusterSet;
using e2e::OTree;

// ((A:1,B:2)x:1,(C:1,(D:1,E:1)z:2)y:3)r;  ids in text order:
// 0 r, 1 x, 2 A, 3 B, 4 y, 5 C, 6 z, 7 D, 8 E
const char* kTree = "((A:1,B:2)x:1,(C:1,(D:1,E:1)z:2)y:3)r;";

void TestParse() {
  OTree t = e2e::ParseNewickText(kTree);
  EXPECT(t.size() == 9);
  EXPECT(t.name[0] == "r" && t.name[2] == "A" && t.name[6] == "z");
  EXPECT(t.parent[7] == 6 && t.parent[6] == 4 && t.parent[4] == 0);
  EXPECT(t.len[3] == 2.0 && t.len[4] == 3.0 && t.len[0] == 0.0);
  OTree q = e2e::ParseNewickText("('a b':1,'it''s':2);");
  EXPECT(q.name[1] == "a b" && q.name[2] == "it's");
  EXPECT(e2e::WriteTopology(t) == "((A,B),(C,(D,E)));");
  bool threw = false;
  try {
    e2e::ParseNewickText("((A,B);");
  } catch (const e2e::OracleError&) {
    threw = true;
  }
  EXPECT(threw);
  // Deep caterpillar: the parser must not recurse.
  std::string deep;
  const int kDepth = 50000;
  for (int i = 0; i < kDepth; ++i) deep += "(L" + std::to_string(i) + ",";
  deep += "E";
  for (int i = 0; i < kDepth; ++i) deep += ")";
  deep += ";";
  OTree c = e2e::ParseNewickText(deep);
  EXPECT(c.size() == 2 * kDepth + 1);
  EXPECT(e2e::Depths(c).back() == kDepth);
}

void TestLcaAndCounts() {
  OTree t = e2e::ParseNewickText(kTree);
  std::vector<int> d = e2e::Depths(t);
  EXPECT(e2e::NaiveLca(t, d, 7, 8) == 6);
  EXPECT(e2e::NaiveLca(t, d, 5, 8) == 4);
  EXPECT(e2e::NaiveLca(t, d, 2, 8) == 0);
  EXPECT(e2e::NaiveLca(t, d, 6, 7) == 6);
  e2e::SubtreeCounts c = e2e::CountSubtrees(t);
  EXPECT(c.nodes[0] == 9 && c.leaves[0] == 5);
  EXPECT(c.nodes[4] == 5 && c.leaves[4] == 3);
  EXPECT(c.nodes[2] == 1 && c.leaves[2] == 1);
}

void TestClusters() {
  OTree t = e2e::ParseNewickText(kTree);
  // Induced by {A, D, E}: {A}, {D}, {E}, {D,E}, {A,D,E}; x and y
  // collapse onto their single requested descendants.
  e2e::OracleIndex idx(t);
  ClusterSet got = e2e::InducedClusters(t, idx, {8, 2, 7});
  ClusterSet want = {{"A"}, {"D"}, {"E"}, {"D", "E"}, {"A", "D", "E"}};
  EXPECT(got == want);
  EXPECT(e2e::TreeClusters(e2e::ParseNewickText("(A,(E,D));")) == want);
  EXPECT(e2e::TreeClusters(e2e::ParseNewickText("(D,(A,E));")) != want);
  EXPECT(e2e::WriteTopology(e2e::InducedSubtree(t, idx, {7, 2, 8})) ==
         "(A,(D,E));");
  EXPECT(e2e::WriteTopology(e2e::InducedSubtree(t, idx, {5, 3})) == "(B,C);");
  EXPECT(idx.IsAncestorOrSelf(4, 8) && !idx.IsAncestorOrSelf(1, 5));
  // Against the definition: for every node, the requested leaves
  // below it, on every 3-leaf subset.
  const std::vector<int> leaves = {2, 3, 5, 7, 8};
  for (size_t i = 0; i < leaves.size(); ++i) {
    for (size_t j = i + 1; j < leaves.size(); ++j) {
      for (size_t k = j + 1; k < leaves.size(); ++k) {
        std::vector<int> s = {leaves[i], leaves[j], leaves[k]};
        ClusterSet brute;
        for (int v = 0; v < t.size(); ++v) {
          Cluster c;
          for (int l : s) {
            if (idx.IsAncestorOrSelf(v, l)) c.push_back(t.name[l]);
          }
          std::sort(c.begin(), c.end());
          if (!c.empty()) brute.insert(c);
        }
        EXPECT(e2e::InducedClusters(t, idx, s) == brute);
      }
    }
  }
}

void TestFrontier() {
  OTree t = e2e::ParseNewickText(kTree);
  std::vector<double> w = e2e::RootWeights(t);
  EXPECT(w[7] == 6.0 && w[3] == 3.0);
  // time 1.5: x (1) is not past it, its leaves (2, 3) are; y (3) is.
  EXPECT((e2e::TimeFrontier(t, w, 1.5) == std::vector<int>{2, 3, 4}));
  EXPECT((e2e::TimeFrontier(t, w, 0.5) == std::vector<int>{1, 4}));
  EXPECT(e2e::TimeFrontier(t, w, 10).empty());
}

void TestRf() {
  OTree a = e2e::ParseNewickText("((A,B),(C,(D,E)));");
  OTree b = e2e::ParseNewickText("((A,C),(B,(D,E)));");
  OTree c = e2e::ParseNewickText("(E,D,(C,(B,A)));");
  // a: splits {A,B}|rest and {D,E}|rest (the root's two sides give
  // the same split); b: {A,C}, {D,E}.
  EXPECT(e2e::RfDistance(a, a) == 0);
  EXPECT(e2e::RfDistance(a, b) == 2);
  // c is a re-rooting of a: same unrooted splits.
  EXPECT(e2e::RfDistance(a, c) == 0);
  bool threw = false;
  try {
    e2e::RfDistance(a, e2e::ParseNewickText("((A,B),(C,F));"));
  } catch (const e2e::OracleError&) {
    threw = true;
  }
  EXPECT(threw);
}

}  // namespace

int main() {
  TestParse();
  TestLcaAndCounts();
  TestClusters();
  TestFrontier();
  TestRf();
  if (failures > 0) {
    std::fprintf(stderr, "%d oracle checks failed\n", failures);
    return 1;
  }
  std::printf("oracle_test: all checks passed\n");
  return 0;
}
