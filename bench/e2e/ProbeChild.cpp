//===----------------------------------------------------------------------===//
//
// Part of AlgSpec. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The speed probe the driver spawns (see Probe.h): a process shaped like
/// a short `algspec` run — exec and dynamic linking of the C++ runtime,
/// first touches of a few megabytes, ordered-map work, then the growth of
/// a hash table like the rewrite engine's normal-form memo — that links
/// nothing from src/, so no change to the program under test can change
/// its cost. Of the shapes tried, this one tracked both the short
/// process-bound commands and the long rewriting ones best.
///
//===----------------------------------------------------------------------===//

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

int main() {
  std::vector<char> Arena(6u << 20);
  for (size_t I = 0; I < Arena.size(); I += 4096)
    Arena[I] = static_cast<char>(I >> 12);
  std::map<uint64_t, uint64_t> Table;
  uint64_t X = 0x9E3779B97F4A7C15ull;
  for (int I = 0; I != 6000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    Table[X % 2048] += X;
  }
  std::string Text;
  for (const auto &[Key, Value] : Table)
    Text += std::to_string(Key ^ Value);
  std::unordered_map<uint64_t, uint64_t> Memo;
  for (int I = 0; I != 50000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    Memo[X] = I;
  }
  // Exit 0 whatever the hash; the work must not be folded away.
  return (std::hash<std::string>()(Text) ^ Memo.size() ^ Arena[4096]) == 1
             ? 1
             : 0;
}
