#include "focq/obs/explain.h"

#include <cstdio>

namespace focq {

namespace {

std::string HumanDuration(std::int64_t ns) {
  char buf[32];
  if (ns < 10'000) {
    std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(ns));
  } else if (ns < 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.2fus", static_cast<double>(ns) / 1e3);
  } else if (ns < 10'000'000'000) {
    std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", static_cast<double>(ns) / 1e9);
  }
  return buf;
}

std::string HumanBytes(std::int64_t bytes) {
  char buf[32];
  if (bytes < 10 * 1024) {
    std::snprintf(buf, sizeof(buf), "%lldB", static_cast<long long>(bytes));
  } else if (bytes < 10 * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB",
                  static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fMiB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
  }
  return buf;
}

void AppendNodeText(const ExplainReport& report, int id, std::string prefix,
                    bool last, bool root, std::string* out) {
  const PlanNode& node = report.nodes[static_cast<std::size_t>(id)];
  const NodeProfile& profile = report.profiles[static_cast<std::size_t>(id)];

  std::string line = prefix;
  if (!root) line += last ? "└─ " : "├─ ";
  line += node.kind;
  if (!node.label.empty()) {
    line += ": ";
    line += node.label;
  }
  if (report.analyzed) {
    line += "  [";
    line += HumanDuration(profile.duration_ns);
    if (profile.bytes_peak > 0) {
      line += ", peak ";
      line += HumanBytes(profile.bytes_peak);
    }
    line += "]";
  }
  *out += line;
  *out += '\n';

  std::string child_prefix = prefix;
  if (!root) child_prefix += last ? "   " : "│  ";

  if (report.analyzed && !profile.counters.empty()) {
    // The counter line sits above the children, aligned with them.
    std::string cline = child_prefix;
    cline += node.children.empty() ? "   " : "│  ";
    cline += "· ";
    bool first = true;
    for (const auto& [name, value] : profile.counters) {
      if (!first) cline += " ";
      first = false;
      cline += name;
      cline += "=";
      cline += std::to_string(value);
    }
    *out += cline;
    *out += '\n';
  }

  for (std::size_t i = 0; i < node.children.size(); ++i) {
    AppendNodeText(report, node.children[i], child_prefix,
                   i + 1 == node.children.size(), false, out);
  }
}

}  // namespace

std::string ExplainReport::ToText() const {
  std::string out;
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    if (nodes[id].parent < 0) {
      AppendNodeText(*this, static_cast<int>(id), "", true, true, &out);
    }
  }
  return out;
}

int ExplainSink::NewNode(int parent, std::string kind, std::string label) {
  std::lock_guard<std::mutex> lock(mutex_);
  int id = static_cast<int>(data_.nodes.size());
  PlanNode node;
  node.id = id;
  node.parent = parent;
  node.kind = std::move(kind);
  node.label = std::move(label);
  data_.nodes.push_back(std::move(node));
  data_.profiles.emplace_back();
  if (parent >= 0 && parent < id) {
    data_.nodes[static_cast<std::size_t>(parent)].children.push_back(id);
  }
  return id;
}

void ExplainSink::AddCounter(int node, std::string_view name,
                             std::int64_t delta) {
  if (node < 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (node >= static_cast<int>(data_.profiles.size())) return;
  data_.profiles[static_cast<std::size_t>(node)]
      .counters[std::string(name)] += delta;
}

void ExplainSink::MaxCounter(int node, std::string_view name,
                             std::int64_t value) {
  if (node < 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (node >= static_cast<int>(data_.profiles.size())) return;
  std::int64_t& slot =
      data_.profiles[static_cast<std::size_t>(node)].counters[std::string(name)];
  if (value > slot) slot = value;
}

void ExplainSink::RecordBytes(int node, std::int64_t bytes) {
  if (node < 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (node >= static_cast<int>(data_.profiles.size())) return;
  NodeProfile& profile = data_.profiles[static_cast<std::size_t>(node)];
  if (bytes > profile.bytes_peak) profile.bytes_peak = bytes;
}

void ExplainSink::AddDuration(int node, std::int64_t ns) {
  if (node < 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (node >= static_cast<int>(data_.profiles.size())) return;
  data_.profiles[static_cast<std::size_t>(node)].duration_ns += ns;
  data_.analyzed = true;
}

ExplainReport ExplainSink::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return data_;
}

}  // namespace focq
