#include "obs/profiler.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>

#include "util/common.hpp"

namespace cosched {

namespace {

/// Merged cross-thread tree node, keyed by child name for determinism.
struct MergedNode {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::map<std::string, MergedNode> children;  ///< ordered => sorted render
};

}  // namespace

Profiler::Profiler() {
  static std::atomic<std::uint64_t> next_id{1};
  id_ = next_id.fetch_add(1, std::memory_order_relaxed);
}

Profiler& Profiler::global() {
  static Profiler profiler;
  return profiler;
}

Profiler::ThreadTree& Profiler::local_tree() {
  // One tree per (thread, profiler); the shared_ptr keeps it alive for
  // renders after the thread exits, the id keys the cache (a stack
  // profiler in a test could reuse an address).
  thread_local std::shared_ptr<ThreadTree> tree;
  thread_local std::uint64_t owner = 0;
  if (!tree || owner != id_) {
    tree = std::make_shared<ThreadTree>();
    owner = id_;
    std::lock_guard<std::mutex> lock(registry_mutex_);
    trees_.push_back(tree);
  }
  return *tree;
}

void Profiler::enter(const char* name) {
  ThreadTree& tree = local_tree();
  Node* parent = tree.current;
  // Sibling scan: names are literals, so pointer equality catches the
  // common case; strcmp covers the same literal from another TU.
  for (const auto& child : parent->children) {
    if (child->name == name || std::strcmp(child->name, name) == 0) {
      tree.current = child.get();
      return;
    }
  }
  auto node = std::make_unique<Node>();
  node->name = name;
  node->parent = parent;
  Node* raw = node.get();
  {
    // Structural insert only — renders snapshotting this tree must never
    // see a half-grown child vector.
    std::lock_guard<std::mutex> lock(tree.mutex);
    parent->children.push_back(std::move(node));
  }
  tree.current = raw;
}

void Profiler::leave(std::uint64_t elapsed_ns) {
  ThreadTree& tree = local_tree();
  Node* node = tree.current;
  COSCHED_EXPECTS(node->parent != nullptr);  // enter/leave must balance
  node->count.fetch_add(1, std::memory_order_relaxed);
  node->total_ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
  tree.current = node->parent;
}

void Profiler::reset_node(Node& node) {
  node.count.store(0, std::memory_order_relaxed);
  node.total_ns.store(0, std::memory_order_relaxed);
  for (auto& child : node.children) reset_node(*child);
}

void Profiler::reset() {
  std::vector<std::shared_ptr<ThreadTree>> trees;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    trees = trees_;
  }
  for (auto& tree : trees) {
    std::lock_guard<std::mutex> lock(tree->mutex);
    reset_node(tree->root);
  }
}

std::vector<Profiler::NodeView> Profiler::snapshot() const {
  std::vector<std::shared_ptr<ThreadTree>> trees;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    trees = trees_;
  }

  MergedNode merged_root;
  std::function<void(const Node&, MergedNode&)> fold =
      [&](const Node& node, MergedNode& into) {
        for (const auto& child : node.children) {
          MergedNode& slot = into.children[child->name];
          slot.count += child->count.load(std::memory_order_relaxed);
          slot.total_ns += child->total_ns.load(std::memory_order_relaxed);
          fold(*child, slot);
        }
      };
  for (const auto& tree : trees) {
    std::lock_guard<std::mutex> lock(tree->mutex);
    fold(tree->root, merged_root);
  }

  std::vector<NodeView> views;
  std::function<void(const MergedNode&, const std::string&, int)> emit =
      [&](const MergedNode& node, const std::string& prefix, int depth) {
        for (const auto& [name, child] : node.children) {
          if (child.count == 0 && child.children.empty()) continue;
          NodeView view;
          view.path = prefix.empty() ? name : prefix + ";" + name;
          view.name = name;
          view.depth = depth;
          view.count = child.count;
          view.total_ns = child.total_ns;
          std::uint64_t children_ns = 0;
          for (const auto& [unused, grandchild] : child.children)
            children_ns += grandchild.total_ns;
          view.self_ns =
              child.total_ns > children_ns ? child.total_ns - children_ns : 0;
          std::string path = view.path;
          views.push_back(std::move(view));
          emit(child, path, depth + 1);
        }
      };
  emit(merged_root, "", 0);
  return views;
}

std::string Profiler::render_collapsed() const {
  std::string out;
  for (const NodeView& view : snapshot()) {
    if (view.count == 0) continue;
    out += view.path;
    out += ' ';
    out += std::to_string(view.self_ns / 1000);
    out += '\n';
  }
  return out;
}

bool Profiler::write_collapsed(const std::string& path) const {
  return write_export_file(path, render_collapsed(), "profile");
}

bool write_export_file(const std::string& path, const std::string& content,
                       const char* what) {
  namespace fs = std::filesystem;
  fs::path target(path);
  if (target.has_parent_path()) {
    std::error_code ec;
    fs::create_directories(target.parent_path(), ec);
    if (ec) {
      std::cerr << "warning: cannot create " << what << " directory "
                << target.parent_path().string() << ": " << ec.message()
                << "\n";
      return false;
    }
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write " << what << " file " << path << "\n";
    return false;
  }
  out << content;
  return true;
}

}  // namespace cosched
