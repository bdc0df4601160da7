// Independent oracles for the end-to-end benchmark. They work on the
// benchmark's own copy of every tree (OTree) and share no code with
// the library's query, labeling or reconstruction modules, so a
// fault there cannot hide in the check that is meant to catch it.
// Every function is the plain, slow algorithm: parent walks, explicit
// leaf sets, set comparisons.

#ifndef E2EBENCH_ORACLE_H_
#define E2EBENCH_ORACLE_H_

#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace e2e {

/// A rooted tree in the benchmark's own representation. Node 0 is the
/// root; ids follow the order in which nodes appear in Newick text
/// (pre-order), which is also the order the library's parser assigns.
struct OTree {
  std::vector<int> parent;  // -1 for the root
  std::vector<std::vector<int>> children;
  std::vector<std::string> name;
  std::vector<double> len;

  int size() const { return static_cast<int>(parent.size()); }
  bool is_leaf(int v) const { return children[v].empty(); }
  int AddNode(int par, std::string node_name, double edge_length);
};

/// Thrown by the oracles on malformed input.
struct OracleError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parses Newick text (unquoted labels, optional ":length"); iterative,
/// so caterpillars tens of thousands deep parse fine.
OTree ParseNewickText(const std::string& text);

/// Leaf name -> node id. Throws OracleError on a duplicate leaf name.
std::unordered_map<std::string, int> LeafIndex(const OTree& tree);

std::vector<int> Depths(const OTree& tree);

/// LCA by walking parent pointers from the deeper node upwards.
int NaiveLca(const OTree& tree, const std::vector<int>& depth, int a, int b);

/// Node and leaf count of every node's subtree.
struct SubtreeCounts {
  std::vector<int> nodes;
  std::vector<int> leaves;
};
SubtreeCounts CountSubtrees(const OTree& tree);

/// A cluster: the sorted names of the leaves below one node.
using Cluster = std::vector<std::string>;
using ClusterSet = std::set<Cluster>;

/// Clusters of every node of `tree` (leaves give singletons).
ClusterSet TreeClusters(const OTree& tree);

/// Depths and subtree sizes, computed once per tree. Ids are
/// pre-order, so u lies below v exactly when v <= u < v + nodes[v].
struct OracleIndex {
  explicit OracleIndex(const OTree& tree)
      : depth(Depths(tree)), counts(CountSubtrees(tree)) {}
  bool IsAncestorOrSelf(int v, int u) const {
    return v <= u && u < v + counts.nodes[v];
  }
  std::vector<int> depth;
  SubtreeCounts counts;
};

/// The subtree induced by `leaves`: the leaves plus the naive LCA of
/// every pair adjacent in pre-order, each linked to its nearest kept
/// ancestor. Leaf names are kept; internal names and lengths are not.
OTree InducedSubtree(const OTree& tree, const OracleIndex& index,
                     std::vector<int> leaves);

/// Clusters of the subtree induced by `leaves`.
ClusterSet InducedClusters(const OTree& tree, const OracleIndex& index,
                           const std::vector<int>& leaves);

/// Sum of edge lengths from the root to every node.
std::vector<double> RootWeights(const OTree& tree);

/// The minimal set of nodes whose root weight exceeds `time`: walking
/// down from the root, stop at the first node past `time`.
std::vector<int> TimeFrontier(const OTree& tree,
                              const std::vector<double>& weight, double time);

/// Unrooted Robinson-Foulds distance, counted as the symmetric
/// difference of the non-trivial bipartitions (2 <= side <= n-2) of two
/// trees on the same leaf names. Throws OracleError if the leaf sets
/// differ.
size_t RfDistance(const OTree& a, const OTree& b);

/// Writes `tree` as topology-only Newick ("(A,(B,C));").
std::string WriteTopology(const OTree& tree);

}  // namespace e2e

#endif  // E2EBENCH_ORACLE_H_
