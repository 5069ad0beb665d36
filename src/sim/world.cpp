#include "sim/world.h"

namespace c2sl::sim {

std::unique_ptr<World> World::clone() const {
  auto w = std::make_unique<World>();
  w->objects_.reserve(objects_.size());
  for (const auto& obj : objects_) {
    auto copy = obj->clone();
    copy->set_name(obj->name());
    w->objects_.push_back(std::move(copy));
  }
  return w;
}

}  // namespace c2sl::sim
