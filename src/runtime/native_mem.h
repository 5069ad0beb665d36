// NativeMem — the runtime's memory policy. The constructions the checker also
// runs (the journal, the sum digest, the Thm 5/9/10 family) are written once
// over a `Mem` that supplies Word<T>, one shared word (here std::atomic<T>,
// each call site with its own linted memory order), and Array<T>, an infinite
// array (here SegmentedArray<T>, runtime/segmented_array.h). The native names
// (KeyedVersionDigest, NativeFetchIncrement, ...) alias the NativeMem
// instantiations; the checker's policy is sim::SimMem (sim/sim_mem.h).
#pragma once

#include <atomic>

namespace c2sl::rt {

template <typename T>
class SegmentedArray;

struct NativeMem {
  template <typename T>
  using Word = std::atomic<T>;
  template <typename T>
  using Array = SegmentedArray<T>;
};

}  // namespace c2sl::rt
