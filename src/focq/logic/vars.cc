#include "focq/logic/vars.h"

#include <deque>
#include <mutex>
#include <unordered_map>

#include "focq/util/check.h"

namespace focq {
namespace {

// Parsing and rewriting run concurrently (server reads parse on pool
// workers), so every access holds the mutex. Names live in a deque: growing
// it never moves an element, so the references VarName hands out stay valid.
struct VarTable {
  std::mutex mutex;
  std::deque<std::string> names;
  std::unordered_map<std::string, Var> ids;

  // Requires `mutex`.
  Var Intern(const std::string& name) {
    auto it = ids.find(name);
    if (it != ids.end()) return it->second;
    Var id = static_cast<Var>(names.size());
    names.push_back(name);
    ids.emplace(name, id);
    return id;
  }
};

VarTable& Table() {
  static VarTable& table = *new VarTable();  // never destroyed, by design
  return table;
}

}  // namespace

Var VarNamed(const std::string& name) {
  VarTable& table = Table();
  std::lock_guard<std::mutex> lock(table.mutex);
  return table.Intern(name);
}

const std::string& VarName(Var v) {
  VarTable& table = Table();
  std::lock_guard<std::mutex> lock(table.mutex);
  FOCQ_CHECK_LT(v, table.names.size());
  return table.names[v];
}

Var FreshVar(const std::string& hint) {
  VarTable& table = Table();
  // One critical section from the probe to the insert: two threads asking
  // for the same hint must not both see a candidate as free.
  std::lock_guard<std::mutex> lock(table.mutex);
  for (std::size_t i = table.names.size();; ++i) {
    std::string candidate = hint + "$" + std::to_string(i);
    if (!table.ids.contains(candidate)) return table.Intern(candidate);
  }
}

}  // namespace focq
