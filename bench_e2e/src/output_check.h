// Output check of the end-to-end benchmark: canonical (r, s, relation)
// link lists, their digest, and the pair-by-pair comparison every check
// reduces to.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/de9im/relation.h"
#include "src/join/mbr_join.h"

namespace bench_e2e {

/// One answered candidate pair. Disjoint pairs are kept: a pair the filter
/// wrongly dropped and a pair wrongly answered `disjoint` both show up as a
/// difference.
struct LinkKey {
  uint32_t r = 0;
  uint32_t s = 0;
  stj::de9im::Relation relation = stj::de9im::Relation::kDisjoint;

  friend bool operator<(const LinkKey& a, const LinkKey& b) {
    if (a.r != b.r) return a.r < b.r;
    return a.s < b.s;
  }
};

/// Sorts \p pairs / \p relations (index-aligned) into canonical (r, s)
/// order.
inline std::vector<LinkKey> CanonicalLinks(
    const std::vector<stj::CandidatePair>& pairs,
    const std::vector<stj::de9im::Relation>& relations) {
  std::vector<LinkKey> links(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    links[i] = LinkKey{pairs[i].r_idx, pairs[i].s_idx, relations[i]};
  }
  std::sort(links.begin(), links.end());
  return links;
}

/// FNV-1a 64 over the canonical list: equal lists give equal digests.
inline uint64_t Digest(const std::vector<LinkKey>& links) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const LinkKey& link : links) {
    mix(link.r, 4);
    mix(link.s, 4);
    mix(static_cast<uint64_t>(link.relation), 1);
  }
  return h;
}

/// Number of pairs on which two canonical lists disagree: a pair present in
/// only one list, or present in both with different relations.
inline uint64_t CountMismatches(const std::vector<LinkKey>& a,
                                const std::vector<LinkKey>& b) {
  uint64_t mismatches = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++mismatches;
      ++i;
    } else if (b[j] < a[i]) {
      ++mismatches;
      ++j;
    } else {
      if (a[i].relation != b[j].relation) ++mismatches;
      ++i;
      ++j;
    }
  }
  return mismatches + (a.size() - i) + (b.size() - j);
}

/// Evenly spaced indices into a list of \p n items, at most \p want of them
/// and always including the first and the last — a fixed sample, so the same
/// inputs are always checked on the same pairs.
inline std::vector<size_t> SampleIndices(size_t n, size_t want) {
  std::vector<size_t> out;
  if (n == 0 || want == 0) return out;
  if (want >= n) {
    for (size_t i = 0; i < n; ++i) out.push_back(i);
    return out;
  }
  for (size_t k = 0; k < want; ++k) {
    out.push_back(want == 1 ? 0 : k * (n - 1) / (want - 1));
  }
  return out;
}

/// Self-test of the checker: a copy of \p links with one relation altered
/// must disagree with the original on exactly one pair.
inline bool CheckerFiresOnAlteredLink(const std::vector<LinkKey>& links) {
  if (links.empty()) return false;
  std::vector<LinkKey> altered = links;
  LinkKey& victim = altered[altered.size() / 2];
  victim.relation = victim.relation == stj::de9im::Relation::kDisjoint
                        ? stj::de9im::Relation::kMeets
                        : stj::de9im::Relation::kDisjoint;
  return CountMismatches(links, altered) == 1 &&
         Digest(links) != Digest(altered);
}

}  // namespace bench_e2e
