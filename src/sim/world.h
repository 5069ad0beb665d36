// The world: an arena of simulated shared base objects.
//
// Base objects (registers, test&set, fetch&add, swap, compare&swap, arrays
// thereof, and per-process local-state cells) live in a World and are addressed
// by stable indices, so that
//   * implementations can be expressed as stateless views (they hold handles and
//     receive a Ctx pointing at a concrete world per call),
//   * World::clone() yields a deep copy with identical indices — this is what
//     Lemma 12's algorithm B uses to "simulate dec_i locally starting from the
//     collected states",
//   * every object is *readable* (Lemma 16): its full state serialises through
//     state_string(), and can be installed into a clone via set_state_string().
//     A step logs its object's state_string() as it finds it, which is how the
//     explorer keys configurations (Ctx::found, sim/explorer.h).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "util/assert.h"

namespace c2sl::sim {

class SimObject {
 public:
  virtual ~SimObject() = default;
  virtual std::unique_ptr<SimObject> clone() const = 0;
  /// Canonical, exact serialisation of the object's current state.
  virtual std::string state_string() const = 0;
  /// Installs a state previously produced by state_string() on a same-typed
  /// object.
  virtual void set_state_string(const std::string& s) = 0;

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

 private:
  std::string name_;
};

template <typename T>
struct Handle {
  size_t idx = static_cast<size_t>(-1);
  bool valid() const { return idx != static_cast<size_t>(-1); }
};

class World {
 public:
  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  template <typename T, typename... Args>
  Handle<T> add(std::string name, Args&&... args) {
    auto obj = std::make_unique<T>(std::forward<Args>(args)...);
    obj->set_name(std::move(name));
    objects_.push_back(std::move(obj));
    return Handle<T>{objects_.size() - 1};
  }

  template <typename T>
  T& get(Handle<T> h) {
    C2SL_ASSERT(h.valid() && h.idx < objects_.size());
    T* p = dynamic_cast<T*>(objects_[h.idx].get());
    C2SL_ASSERT_MSG(p != nullptr, "handle type mismatch");
    return *p;
  }

  SimObject& at(size_t idx) {
    C2SL_ASSERT(idx < objects_.size());
    return *objects_[idx];
  }
  const SimObject& at(size_t idx) const {
    C2SL_ASSERT(idx < objects_.size());
    return *objects_[idx];
  }

  size_t size() const { return objects_.size(); }

  /// Deep copy preserving indices.
  std::unique_ptr<World> clone() const;

 private:
  std::vector<std::unique_ptr<SimObject>> objects_;
};

}  // namespace c2sl::sim
