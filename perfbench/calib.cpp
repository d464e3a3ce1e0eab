// Host-speed probe for the benchmark: a fixed amount of work that does not
// depend on the program, timed in-process.
//
//     perfbench_calib [REPS]      # one line per rep: seconds for that rep
//
// On a shared host the program's speed wanders with what other tenants run
// (by ±20% from minute to minute, up to 2x for tens of minutes).  run.py
// times this probe between the passes of a workload and scales each pass by
// the probe's speed around it.  A latency-bound loop hardly feels that
// contention, so the probe mixes the kinds of work the program does:
// bitset row ORs in L2 (simulator), inserts into a 16 MB open-addressing
// table (search state sets) and a branchy accept/reject loop (synth moves).
//
// The work is part of the benchmark's definition: changing it rescales every
// normalized time, so change it only together with the baseline.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

uint64_t rows_or() {
  const size_t n = 2048, w = n / 64;  // 2048 x 2048 bits, 512 KB
  std::vector<uint64_t> cur(n * w, 0), next(n * w);
  for (size_t i = 0; i < n; ++i) cur[i * w + i / 64] = 1ull << (i % 64);
  for (size_t r = 0; r < 3600; ++r) {
    for (size_t i = 0; i < n; ++i) {
      const uint64_t* a = &cur[i * w];
      const uint64_t* b = &cur[((2 * i + r) % n) * w];
      const uint64_t* c = &cur[((2 * i + 1 + r) % n) * w];
      uint64_t* o = &next[i * w];
      for (size_t k = 0; k < w; ++k) o[k] = a[k] | b[k] | c[k];
    }
    cur.swap(next);
    if (r % 12 == 11)
      for (size_t i = 0; i < n; ++i) cur[i * w + (i * 7) % w] &= 0x5555555555555555ull;
  }
  uint64_t bits = 0;
  for (uint64_t v : cur) bits += static_cast<uint64_t>(__builtin_popcountll(v));
  return bits;
}

uint64_t hash_inserts() {
  std::vector<uint64_t> table(size_t{1} << 21);
  const size_t mask = table.size() - 1;
  uint64_t key = 1;
  for (int rep = 0; rep < 5; ++rep) {
    std::fill(table.begin(), table.end(), 0);
    for (int i = 0; i < 1000000; ++i) {
      key = key * 6364136223846793005ull + 1442695040888963407ull;
      size_t s = ((key ^ (key >> 29)) * 0xbf58476d1ce4e5b9ull) >> 43;
      while (table[s] != 0 && table[s] != key) s = (s + 1) & mask;
      table[s] = key;
    }
  }
  return table[12345];
}

uint64_t accept_reject() {
  std::vector<int> arr(4096);
  for (size_t i = 0; i < arr.size(); ++i) arr[i] = static_cast<int>(i * 37 % 101);
  uint64_t x = 88172645463325252ull;
  int64_t cost = 0;
  for (long i = 0; i < 8000000L; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const size_t p = x & 4095, q = (x >> 12) & 4095;
    const int d = arr[p] - arr[q];
    if (d > 0 || (x >> 40) % 7 == 0) {
      std::swap(arr[p], arr[q]);
      cost += d;
    }
  }
  return static_cast<uint64_t>(cost);
}

}  // namespace

int main(int argc, char** argv) {
  const int reps = argc > 1 ? std::atoi(argv[1]) : 1;
  if (reps < 1) {
    std::fprintf(stderr, "usage: perfbench_calib [REPS >= 1]\n");
    return 2;
  }
  uint64_t sink = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    sink += rows_or() + hash_inserts() + accept_reject();
    std::printf("%.9f\n", std::chrono::duration<double>(Clock::now() - t0).count());
  }
  // The checksum keeps the work from being optimized away.
  std::fprintf(stderr, "checksum %llu\n", static_cast<unsigned long long>(sink));
  return 0;
}
