#include "util/pool.hpp"

#include <map>
#include <mutex>

namespace weakset::detail {
namespace {

/// Every pool state ever made, and the free ones per pool type. Leaked on
/// purpose: states must stay reachable, and threads return theirs during
/// process exit.
struct Registry {
  std::mutex mutex;
  std::vector<void*> all;
  std::map<const void*, std::vector<void*>> free;
};

Registry& registry() {
  static Registry* instance = new Registry;
  return *instance;
}

}  // namespace

void* claim_state(const void* kind) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock{reg.mutex};
  std::vector<void*>& free = reg.free[kind];
  if (free.empty()) return nullptr;
  void* state = free.back();
  free.pop_back();
  return state;
}

void register_state(void* state) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock{reg.mutex};
  reg.all.push_back(state);
}

void return_state(const void* kind, void* state) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock{reg.mutex};
  reg.free[kind].push_back(state);
}

std::size_t pool_states() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock{reg.mutex};
  return reg.all.size();
}

}  // namespace weakset::detail
