#include "oracle.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iterator>
#include <string_view>
#include <unordered_map>

namespace e2e {

int OTree::AddNode(int par, std::string node_name, double edge_length) {
  const int id = size();
  parent.push_back(par);
  children.emplace_back();
  name.push_back(std::move(node_name));
  len.push_back(edge_length);
  if (par >= 0) children[par].push_back(id);
  return id;
}

OTree ParseNewickText(const std::string& text) {
  OTree tree;
  std::vector<int> open;  // internal nodes whose ')' is still ahead
  size_t pos = 0;
  auto skip_space = [&] {
    while (pos < text.size() && isspace(static_cast<unsigned char>(text[pos])))
      ++pos;
  };
  auto read_label = [&]() -> std::string {
    skip_space();
    std::string out;
    if (pos < text.size() && text[pos] == '\'') {
      ++pos;
      while (pos < text.size()) {
        if (text[pos] == '\'') {
          if (pos + 1 < text.size() && text[pos + 1] == '\'') {
            out.push_back('\'');
            pos += 2;
            continue;
          }
          ++pos;
          return out;
        }
        out.push_back(text[pos++]);
      }
      throw OracleError("unterminated quoted label");
    }
    while (pos < text.size() && std::string_view("(),:;").find(text[pos]) ==
                                    std::string_view::npos &&
           !isspace(static_cast<unsigned char>(text[pos]))) {
      out.push_back(text[pos++]);
    }
    return out;
  };
  auto read_length = [&]() -> double {
    skip_space();
    if (pos >= text.size() || text[pos] != ':') return 0.0;
    ++pos;
    const char* begin = text.c_str() + pos;
    char* end = nullptr;
    double v = std::strtod(begin, &end);
    if (end == begin) throw OracleError("bad edge length");
    pos += static_cast<size_t>(end - begin);
    return v;
  };
  // Each loop turn reads one node start: '(' opens an internal node,
  // anything else is a leaf label.
  while (true) {
    skip_space();
    if (pos >= text.size()) throw OracleError("unexpected end of Newick");
    const int par = open.empty() ? -1 : open.back();
    if (par == -1 && tree.size() > 0) throw OracleError("two roots");
    if (text[pos] == '(') {
      ++pos;
      open.push_back(tree.AddNode(par, "", 0.0));
      continue;
    }
    const int leaf = tree.AddNode(par, read_label(), 0.0);
    tree.len[leaf] = read_length();
    // Close as many internal nodes as the text closes here.
    while (true) {
      skip_space();
      if (pos >= text.size()) throw OracleError("unexpected end of Newick");
      if (text[pos] == ',') {
        if (open.empty()) throw OracleError("',' outside parentheses");
        ++pos;
        break;
      }
      if (text[pos] == ')') {
        if (open.empty()) throw OracleError("unbalanced ')'");
        ++pos;
        const int node = open.back();
        open.pop_back();
        tree.name[node] = read_label();
        tree.len[node] = read_length();
        continue;
      }
      if (text[pos] == ';') {
        if (!open.empty()) throw OracleError("unbalanced '('");
        tree.len[0] = 0.0;
        return tree;
      }
      throw OracleError("unexpected character in Newick");
    }
  }
}

std::unordered_map<std::string, int> LeafIndex(const OTree& tree) {
  std::unordered_map<std::string, int> index;
  for (int v = 0; v < tree.size(); ++v) {
    if (tree.is_leaf(v) && !index.emplace(tree.name[v], v).second) {
      throw OracleError("duplicate leaf name " + tree.name[v]);
    }
  }
  return index;
}

std::vector<int> Depths(const OTree& tree) {
  // Parents precede children in pre-order ids.
  std::vector<int> depth(tree.size(), 0);
  for (int v = 1; v < tree.size(); ++v) depth[v] = depth[tree.parent[v]] + 1;
  return depth;
}

int NaiveLca(const OTree& tree, const std::vector<int>& depth, int a, int b) {
  while (depth[a] > depth[b]) a = tree.parent[a];
  while (depth[b] > depth[a]) b = tree.parent[b];
  while (a != b) {
    a = tree.parent[a];
    b = tree.parent[b];
  }
  return a;
}

SubtreeCounts CountSubtrees(const OTree& tree) {
  SubtreeCounts c;
  c.nodes.assign(tree.size(), 1);
  c.leaves.assign(tree.size(), 0);
  for (int v = tree.size() - 1; v >= 0; --v) {
    if (tree.is_leaf(v)) c.leaves[v] = 1;
    if (v > 0) {
      c.nodes[tree.parent[v]] += c.nodes[v];
      c.leaves[tree.parent[v]] += c.leaves[v];
    }
  }
  return c;
}

namespace {

ClusterSet Finish(std::unordered_map<int, Cluster>* below) {
  ClusterSet out;
  for (auto& [node, names] : *below) {
    std::sort(names.begin(), names.end());
    out.insert(std::move(names));
  }
  return out;
}

}  // namespace

ClusterSet TreeClusters(const OTree& tree) {
  std::unordered_map<int, Cluster> below;
  for (int leaf = 0; leaf < tree.size(); ++leaf) {
    if (!tree.is_leaf(leaf)) continue;
    for (int v = leaf; v >= 0; v = tree.parent[v]) {
      below[v].push_back(tree.name[leaf]);
    }
  }
  return Finish(&below);
}

OTree InducedSubtree(const OTree& tree, const OracleIndex& index,
                     std::vector<int> leaves) {
  std::sort(leaves.begin(), leaves.end());
  leaves.erase(std::unique(leaves.begin(), leaves.end()), leaves.end());
  std::vector<int> kept = leaves;
  for (size_t i = 0; i + 1 < leaves.size(); ++i) {
    kept.push_back(NaiveLca(tree, index.depth, leaves[i], leaves[i + 1]));
  }
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  OTree out;
  std::vector<std::pair<int, int>> stack;  // (tree id, induced id)
  for (int v : kept) {
    while (!stack.empty() && !index.IsAncestorOrSelf(stack.back().first, v)) {
      stack.pop_back();
    }
    const int par = stack.empty() ? -1 : stack.back().second;
    if (par == -1 && out.size() > 0) throw OracleError("induced forest");
    const int id = out.AddNode(par, tree.is_leaf(v) ? tree.name[v] : "", 0.0);
    stack.push_back({v, id});
  }
  return out;
}

ClusterSet InducedClusters(const OTree& tree, const OracleIndex& index,
                           const std::vector<int>& leaves) {
  return TreeClusters(InducedSubtree(tree, index, leaves));
}

std::vector<double> RootWeights(const OTree& tree) {
  std::vector<double> w(tree.size(), 0.0);
  for (int v = 1; v < tree.size(); ++v) w[v] = w[tree.parent[v]] + tree.len[v];
  return w;
}

std::vector<int> TimeFrontier(const OTree& tree,
                              const std::vector<double>& weight, double time) {
  std::vector<int> frontier;
  for (int v = 0; v < tree.size(); ++v) {
    if (weight[v] > time && (v == 0 || weight[tree.parent[v]] <= time)) {
      // Every ancestor is at most `time` when the parent is: weights
      // grow down the tree, so this is the first node past `time`.
      frontier.push_back(v);
    }
  }
  return frontier;
}

namespace {

std::set<Cluster> Bipartitions(const OTree& tree, const std::string& anchor,
                               size_t n_leaves) {
  std::set<Cluster> splits;
  const ClusterSet clusters = TreeClusters(tree);
  std::vector<std::string> all;
  for (int v = 0; v < tree.size(); ++v) {
    if (tree.is_leaf(v)) all.push_back(tree.name[v]);
  }
  std::sort(all.begin(), all.end());
  for (const Cluster& c : clusters) {
    if (c.size() < 2 || c.size() + 2 > n_leaves) continue;
    if (std::binary_search(c.begin(), c.end(), anchor)) {
      Cluster other;
      std::set_difference(all.begin(), all.end(), c.begin(), c.end(),
                          std::back_inserter(other));
      splits.insert(std::move(other));
    } else {
      splits.insert(c);
    }
  }
  return splits;
}

}  // namespace

size_t RfDistance(const OTree& a, const OTree& b) {
  std::vector<std::string> la, lb;
  for (int v = 0; v < a.size(); ++v) {
    if (a.is_leaf(v)) la.push_back(a.name[v]);
  }
  for (int v = 0; v < b.size(); ++v) {
    if (b.is_leaf(v)) lb.push_back(b.name[v]);
  }
  std::sort(la.begin(), la.end());
  std::sort(lb.begin(), lb.end());
  if (la != lb || la.empty()) throw OracleError("RF of different leaf sets");
  const std::set<Cluster> sa = Bipartitions(a, la[0], la.size());
  const std::set<Cluster> sb = Bipartitions(b, la[0], la.size());
  size_t common = 0;
  for (const Cluster& s : sa) common += sb.count(s);
  return sa.size() + sb.size() - 2 * common;
}

std::string WriteTopology(const OTree& tree) {
  std::string out;
  // (node, next child index) frames; iterative for deep trees.
  std::vector<std::pair<int, size_t>> stack = {{0, 0}};
  while (!stack.empty()) {
    auto& [v, next] = stack.back();
    if (tree.is_leaf(v)) {
      out += tree.name[v];
      stack.pop_back();
      continue;
    }
    if (next == 0) out.push_back('(');
    if (next < tree.children[v].size()) {
      if (next > 0) out.push_back(',');
      const int child = tree.children[v][next++];
      stack.push_back({child, 0});
      continue;
    }
    out.push_back(')');
    stack.pop_back();
  }
  out.push_back(';');
  return out;
}

}  // namespace e2e
