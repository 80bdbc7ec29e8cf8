#include "bandit/topk.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

namespace cdt {
namespace bandit {

void GroupedTopKSelector::Invalidate(const EstimatorBank& bank, int arm) {
  // A gap in the sequence means an update reached the bank without
  // reaching the selector. Past M pending arms a rebuild is cheaper than
  // filing them, and pending_ stays bounded.
  if (bank.update_seq() != seq_ + 1 ||
      pending_.size() >= static_cast<std::size_t>(bank.num_arms())) {
    in_sync_ = false;
  }
  seq_ = bank.update_seq();
  if (in_sync_) pending_.push_back(arm);
}

namespace {

// The rebuild's radix digit.
constexpr int kRadixBits = 11;
constexpr std::size_t kRadixBuckets = std::size_t{1} << kRadixBits;

// Restores a binary heap (std::make_heap's layout under `less`) after its
// top element changed: one sift-down instead of a pop_heap + push_heap.
template <typename T, typename Less>
void SiftDown(std::vector<T>* heap, Less less) {
  const std::size_t n = heap->size();
  T item = (*heap)[0];
  std::size_t i = 0;
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && less((*heap)[child], (*heap)[child + 1])) ++child;
    if (!less(item, (*heap)[child])) break;
    (*heap)[i] = (*heap)[child];
    i = child;
  }
  (*heap)[i] = item;
}

// The radix sort's view of a key word: non-negative doubles order as their
// bit patterns (mean + 0.0 folds a restored -0.0 into +0.0, its equal).
inline std::uint64_t Bits(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  return bits;
}

}  // namespace

void GroupedTopKSelector::Rebuild(const EstimatorBank& bank) {
  const double* counts = bank.counts().data();
  const double* means = bank.means().data();
  runs_.clear();
  pending_.clear();
  pool_.clear();

  // Stable LSD radix sort of the warm arms by (count asc, mean desc) over
  // the key bits that vary: ~bits(mean), then bits(count). The arms enter
  // in ascending order, which ties keep. At M = 10^5 this is several times
  // faster than a comparison sort, whose comparisons of random means
  // mispredict half the time.
  std::uint64_t mean_or = 0, mean_and = ~std::uint64_t{0};
  std::uint64_t count_or = 0, count_and = ~std::uint64_t{0};
  for (int i = 0; i < bank.num_arms(); ++i) {
    const std::size_t idx = static_cast<std::size_t>(i);
    if (counts[idx] == 0.0) continue;
    pool_.push_back(Entry{means[idx], i, 0});
    const std::uint64_t lo = ~Bits(means[idx] + 0.0), hi = Bits(counts[idx]);
    mean_or |= lo;
    mean_and &= lo;
    count_or |= hi;
    count_and &= hi;
  }
  const std::size_t n = pool_.size();
  std::vector<Entry> scratch(n);
  std::vector<std::uint32_t> hist(kRadixBuckets);
  auto sort_by = [&](std::uint64_t varying, auto key) {
    for (int shift = 0; shift < 64; shift += kRadixBits) {
      if (((varying >> shift) & (kRadixBuckets - 1)) == 0) continue;
      auto digit = [&](const Entry& e) {
        return static_cast<std::size_t>((key(e) >> shift) &
                                        (kRadixBuckets - 1));
      };
      std::fill(hist.begin(), hist.end(), 0);
      for (const Entry& e : pool_) ++hist[digit(e)];
      std::uint32_t sum = 0;
      for (std::uint32_t& h : hist) {
        const std::uint32_t c = h;
        h = sum;
        sum += c;
      }
      for (const Entry& e : pool_) scratch[hist[digit(e)]++] = e;
      pool_.swap(scratch);
    }
  };
  sort_by(mean_or ^ mean_and,
          [](const Entry& e) { return ~Bits(e.mean + 0.0); });
  sort_by(count_or ^ count_and, [counts](const Entry& e) {
    return Bits(counts[static_cast<std::size_t>(e.arm)]);
  });

  // Room for the pool to reach the compaction size (twice the warm arms)
  // and one round's filing past it without growing.
  pool_.reserve(2 * n + 128);

  // One run per count.
  for (std::size_t i = 0; i < n; ++i) {
    const double count = counts[static_cast<std::size_t>(pool_[i].arm)];
    if (runs_.empty() || runs_.back().count != count) {
      if (!runs_.empty()) runs_.back().end = i;
      runs_.push_back(Run{count, 0.0, i, n});
    }
  }
  sl_cap_ = 0.0;  // the next selection takes every group's cap
  in_sync_ = true;
  seq_ = bank.update_seq();
}

void GroupedTopKSelector::FileArrivals(const EstimatorBank& bank) {
  const double* counts = bank.counts().data();
  const double* means = bank.means().data();
  keys_.clear();
  for (int arm : pending_) {
    const std::size_t idx = static_cast<std::size_t>(arm);
    keys_.push_back(Key{counts[idx], means[idx], arm});
  }
  pending_.clear();
  std::sort(keys_.begin(), keys_.end(), [](const Key& a, const Key& b) {
    if (a.count != b.count) return a.count < b.count;
    if (a.mean != b.mean) return a.mean > b.mean;
    return a.arm < b.arm;
  });
  // An arm updated twice since the last select yields two identical keys.
  keys_.erase(std::unique(keys_.begin(), keys_.end(),
                          [](const Key& a, const Key& b) {
                            return a.arm == b.arm;
                          }),
              keys_.end());

  // Each count's arrivals form one sorted run at the tail of its group.
  // Binary-counter merging: while the group's last run is no larger than
  // twice the new one, the two merge, so a group's runs shrink at least
  // geometrically and it never holds more than O(log M) of them.
  // Keys and runs both ascend by count, so one forward walk finds every
  // group.
  std::size_t next = 0;
  for (std::size_t j = 0; j < keys_.size();) {
    const double count = keys_[j].count;
    while (next < runs_.size() && runs_[next].count < count) ++next;
    const auto lo = runs_.begin() + static_cast<std::ptrdiff_t>(next);
    auto hi = lo;
    while (hi != runs_.end() && hi->count == count) ++hi;
    // A new group's cap is taken at sl_cap_ (all caps are retaken together
    // once sl passes it).
    Run run{count, lo != hi ? lo->cap : std::sqrt(sl_cap_ / count),
            pool_.size(), 0};
    for (; j < keys_.size() && keys_[j].count == count; ++j) {
      pool_.push_back(Entry{keys_[j].mean, keys_[j].arm, 0});
    }
    run.end = pool_.size();
    auto tail = hi;
    while (tail != lo && (tail - 1)->end - (tail - 1)->head <=
                             2 * (run.end - run.head)) {
      --tail;
      run = MergeRuns(*tail, run, counts);
    }
    next = static_cast<std::size_t>(tail - runs_.begin()) + 1;
    if (tail == hi) {
      runs_.insert(hi, run);
    } else {
      *tail = run;
      runs_.erase(tail + 1, hi);
    }
  }

  // Each warm arm has exactly one live entry; past twice that the pool is
  // mostly tombstones and merged-away runs.
  const std::size_t warm = static_cast<std::size_t>(bank.num_arms() -
                                                    bank.num_unexplored());
  if (pool_.size() > 2 * warm + 64) CompactPool(counts);
}

GroupedTopKSelector::Run GroupedTopKSelector::MergeRuns(
    const Run& a, const Run& b, const double* counts) {
  const std::size_t need = pool_.size() + (a.end - a.head) + (b.end - b.head);
  if (pool_.capacity() < need) {
    pool_.reserve(std::max(need, pool_.capacity() + pool_.capacity() / 2));
  }
  const double count = a.count;
  auto append_live = [&](std::size_t pos) {
    const Entry e = pool_[pos];
    if (counts[static_cast<std::size_t>(e.arm)] == count) pool_.push_back(e);
  };
  Run out{count, a.cap, pool_.size(), 0};
  std::size_t i = a.head, j = b.head;
  while (i < a.end && j < b.end) {
    const Entry& x = pool_[i];
    const Entry& y = pool_[j];
    if (y.mean > x.mean || (y.mean == x.mean && y.arm < x.arm)) {
      append_live(j++);
    } else {
      append_live(i++);
    }
  }
  for (; i < a.end; ++i) append_live(i);
  for (; j < b.end; ++j) append_live(j);
  out.end = pool_.size();
  return out;
}

void GroupedTopKSelector::CompactPool(const double* counts) {
  // In place, in pool order: every live entry moves down, never onto one
  // not yet read, and each run keeps its order. Each run's head is marked
  // with its index, so one walk of the pool meets the runs in pool order;
  // what lies between them is the space of merged-away runs.
  for (std::size_t r = 0; r < runs_.size(); ++r) {
    const Run& run = runs_[r];
    if (run.head != run.end) pool_[run.head].mark = static_cast<int>(r) + 1;
  }
  std::size_t w = 0;
  for (std::size_t pos = 0; pos < pool_.size();) {
    if (pool_[pos].mark == 0) {
      ++pos;
      continue;
    }
    Run& run = runs_[static_cast<std::size_t>(pool_[pos].mark - 1)];
    pool_[pos].mark = 0;
    const std::size_t head = w;
    for (std::size_t i = run.head; i < run.end; ++i) {
      const Entry e = pool_[i];
      if (counts[static_cast<std::size_t>(e.arm)] == run.count) pool_[w++] = e;
    }
    pos = run.end;
    run.head = head;
    run.end = w;
  }
  pool_.resize(w);
  runs_.erase(std::remove_if(runs_.begin(), runs_.end(),
                             [](const Run& run) { return run.head == run.end; }),
              runs_.end());
}

bool GroupedTopKSelector::SeekLive(Head* h, const double* counts) const {
  const Run& run = runs_[h->run];
  for (; h->pos < run.end; ++h->pos) {
    const Entry& e = pool_[h->pos];
    if (counts[static_cast<std::size_t>(e.arm)] == run.count) {
      h->value = e.mean + h->bonus;
      return true;
    }
  }
  return false;
}

void GroupedTopKSelector::MergeTop(const EstimatorBank& bank, int need,
                                   std::vector<int>* out) {
  const double sl = bank.scaled_log();
  const double* counts = bank.counts().data();

  // Caps: each group's bonus at sl_cap_ ≥ sl. Division, sqrt and
  // addition round monotonically, so fl(mean + cap) ≥ fl(mean + bonus)
  // for every entry of the group. sl only grows with Σn; the caps are
  // retaken, once per group, when it passes sl_cap_, set 2^-12 (~0.024%)
  // above it, so a cap stays within ~0.012% of its bonus: tight enough to
  // skip most sqrts, loose enough to be retaken only every few rounds.
  if (sl > sl_cap_) {
    sl_cap_ = sl * (1.0 + 1.0 / 4096.0);
    double count = 0.0, cap = 0.0;
    for (Run& run : runs_) {
      if (run.count != count) {
        count = run.count;
        cap = std::sqrt(sl_cap_ / count);
      }
      run.cap = cap;
    }
  }

  // Head pass: advance each run past the tombstones at its head, drop the
  // runs that emptied, and bound each live head's value by its cap.
  std::size_t kept = 0;
  caps_.resize(runs_.size());
  for (std::size_t r = 0; r < runs_.size(); ++r) {
    Run run = runs_[r];
    while (run.head < run.end &&
           counts[static_cast<std::size_t>(pool_[run.head].arm)] !=
               run.count) {
      ++run.head;
    }
    if (run.head == run.end) continue;
    caps_[kept] = pool_[run.head].mean + run.cap;
    runs_[kept++] = run;
  }
  runs_.resize(kept);
  caps_.resize(kept);

  // A head's exact value: Eq. (19)'s bonus, with UcbValuesInto's
  // expression mean + sqrt(sl / n), taken once per group while the runs
  // come in count order.
  double bonus_count = 0.0, bonus = 0.0;
  auto value_head = [&](std::size_t r) {
    const Run& run = runs_[r];
    if (run.count != bonus_count) {
      bonus_count = run.count;
      bonus = std::sqrt(sl / bonus_count);
    }
    return Head{pool_[run.head].mean + bonus, bonus, run.head, r};
  };

  // Threshold: the exact values of any `need` heads are reached by `need`
  // entries, so their minimum is at most the need-th best value, and a run
  // whose cap falls below it cannot contribute. The `need` heads with the
  // highest caps give a tight one. A bounded min-heap finds them in one
  // pass, scanning the high counts first: when many groups exist, the arms
  // played most (the best ones) hold the top values, so few of the rest
  // enter the heap.
  const std::size_t want = static_cast<std::size_t>(need);
  double threshold = -std::numeric_limits<double>::infinity();
  if (kept > want) {
    auto cap_above = [](const Capped& a, const Capped& b) {
      return a.cap > b.cap;
    };
    top_.clear();
    for (std::size_t r = kept - want; r < kept; ++r) {
      top_.push_back(Capped{caps_[r], r});
    }
    std::make_heap(top_.begin(), top_.end(), cap_above);
    for (std::size_t r = kept - want; r-- > 0;) {
      if (caps_[r] > top_.front().cap) {
        top_.front() = Capped{caps_[r], r};
        SiftDown(&top_, cap_above);
      }
    }
    threshold = std::numeric_limits<double>::infinity();
    for (const Capped& c : top_) {
      threshold = std::min(threshold, value_head(c.run).value);
    }
  }
  // The rest of the heads at or above it get exact values, and the need-th
  // best of those is the exact threshold.
  heads_.clear();
  for (std::size_t r = 0; r < kept; ++r) {
    if (caps_[r] < threshold) continue;
    const Head h = value_head(r);
    if (h.value >= threshold) heads_.push_back(h);
  }
  if (heads_.size() > want) {
    auto nth = heads_.begin() + static_cast<std::ptrdiff_t>(want - 1);
    std::nth_element(heads_.begin(), nth, heads_.end(),
                     [](const Head& a, const Head& b) {
                       return a.value > b.value;
                     });
    const double exact = nth->value;
    heads_.erase(std::remove_if(nth + 1, heads_.end(),
                                [exact](const Head& h) {
                                  return h.value < exact;
                                }),
                 heads_.end());
  }

  // Threshold merge through a max-heap of run heads. An entry whose value
  // no other head shares is emitted at once; a tie starts a level: every
  // live entry of that value is collected (level_ is a max-heap of the
  // smallest `rem` arm indices seen) and emitted in ascending index order.
  auto value_below = [](const Head& a, const Head& b) {
    return a.value < b.value;
  };
  // The top cursor moved on: re-sift it, or drop it when its run is done.
  auto settle = [&](bool more) {
    if (!more) {
      heads_.front() = heads_.back();
      heads_.pop_back();
      if (heads_.empty()) return;
    }
    SiftDown(&heads_, value_below);
  };
  std::make_heap(heads_.begin(), heads_.end(), value_below);
  std::size_t rem = want;
  while (rem > 0 && !heads_.empty()) {
    Head& top = heads_.front();
    const double v = top.value;
    const int first = pool_[top.pos].arm;
    ++top.pos;
    settle(SeekLive(&top, counts));
    if (heads_.empty() || heads_.front().value != v) {
      out->push_back(first);
      --rem;
      continue;
    }
    level_.assign(1, first);
    while (!heads_.empty() && heads_.front().value == v) {
      Head& h = heads_.front();
      bool more;
      do {
        const Entry e = pool_[h.pos];
        if (level_.size() < rem) {
          level_.push_back(e.arm);
          std::push_heap(level_.begin(), level_.end());
          ++h.pos;
        } else if (e.arm < level_.front()) {
          level_.front() = e.arm;
          SiftDown(&level_, std::less<int>());
          ++h.pos;
        } else {
          // e loses the tie-break, and so does every later entry with its
          // mean: they follow it in ascending index order.
          const double mean = e.mean;
          h.pos = static_cast<std::size_t>(
              std::partition_point(
                  pool_.begin() + static_cast<std::ptrdiff_t>(h.pos + 1),
                  pool_.begin() + static_cast<std::ptrdiff_t>(
                                      runs_[h.run].end),
                  [mean](const Entry& x) { return x.mean == mean; }) -
              pool_.begin());
        }
        more = SeekLive(&h, counts);
      } while (more && h.value == v);
      settle(more);
    }
    std::sort(level_.begin(), level_.end());
    out->insert(out->end(), level_.begin(), level_.end());
    rem -= level_.size();
  }
}

void GroupedTopKSelector::SelectInto(const EstimatorBank& bank, int k,
                                     std::vector<int>* out) {
  if (!in_sync_ || bank.update_seq() != seq_) {
    Rebuild(bank);
  } else if (!pending_.empty()) {
    FileArrivals(bank);
  }

  out->clear();
  const int take = std::min(k, bank.num_arms());
  if (take <= 0) return;

  // Cold arms carry a +inf UCB with index-ascending tie-breaks: they rank
  // ahead of every warm arm, in ascending index order.
  const std::vector<int>& cold = bank.cold_arms();
  const int cold_take = std::min<int>(take, static_cast<int>(cold.size()));
  out->assign(cold.begin(), cold.begin() + cold_take);
  const int need = take - cold_take;
  if (need > 0) MergeTop(bank, need, out);
}

}  // namespace bandit
}  // namespace cdt
