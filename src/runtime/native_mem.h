// NativeMem — the runtime's memory policy. The constructions the checker also
// runs (the Thm 1/2 packed words, the journal, the sum digest, the Thm
// 5/6/9/10 family, the routing-epoch spine) are written once over a `Mem` that
// supplies Word<T>, one shared word (here std::atomic<T>, each call site with
// its own linted memory order), and Array<T>, an infinite array (here
// SegmentedArray<T>, runtime/segmented_array.h). A word kept in an Array can
// instead be a RefWord<T> (here a plain T, so a segment of them is zero
// pages until written), reached as Mem::ref(w).load(order) and so on (here
// through std::atomic_ref, with the same literal order at each call site).
// The native names (NativeMaxRegister64, KeyedVersionDigest,
// NativeFetchIncrement, ...) alias the NativeMem instantiations; the
// checker's policy is sim::SimMem (sim/sim_mem.h).
#pragma once

#include <atomic>

namespace c2sl::rt {

template <typename T>
class SegmentedArray;

struct NativeMem {
  template <typename T>
  using Word = std::atomic<T>;
  template <typename T>
  using RefWord = T;
  template <typename T>
  static std::atomic_ref<T> ref(T& w) {
    return std::atomic_ref<T>(w);
  }
  template <typename T>
  using Array = SegmentedArray<T>;
};

}  // namespace c2sl::rt
