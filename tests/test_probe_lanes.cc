/**
 * @file
 * Struct-of-arrays probe-lane equivalence suite (DESIGN.md section 8).
 *
 * The SoA LoadBuffer and LinkTable promise bit-for-bit scalar
 * semantics. This file holds them to it three ways:
 *
 *  1. Unit tests of the probe primitives: the SWAR multi-tag compare
 *     may over-approximate (candidates are confirmed against the
 *     full-tag lane) but must never miss a matching way, and must
 *     reject every invalid way.
 *  2. Differential fuzz: the pre-SoA array-of-structs implementations
 *     are retained here verbatim as references; identical random
 *     probe/allocate/update/clear sequences must produce identical
 *     hit/miss answers, victim choices, LRU clocks, counters, and
 *     final per-slot state, across direct-mapped, associative,
 *     tagless, PF-less and decoupled-PF-table geometries.
 *  3. A state_io round trip over the SoA layout: a snapshotted and
 *     restored predictor is image-identical and predicts identically
 *     on a continuation run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "core/hybrid_predictor.hh"
#include "core/link_table.hh"
#include "core/load_buffer.hh"
#include "core/probe_lanes.hh"
#include "core/state_io.hh"
#include "util/bits.hh"

namespace clap
{
namespace
{

// ---------------------------------------------------------------
// Probe primitives
// ---------------------------------------------------------------

/** Exact byte-equality reference for the candidate masks. */
std::uint32_t
exactWays(std::uint64_t ctrl_word, std::uint8_t target)
{
    std::uint32_t ways = 0;
    for (unsigned byte = 0; byte < 8; ++byte) {
        if (static_cast<std::uint8_t>(ctrl_word >> (8 * byte)) ==
            target)
            ways |= 1u << byte;
    }
    return ways;
}

TEST(ProbeLanes, CtrlByteAlwaysMarksValid)
{
    std::mt19937_64 rng(1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_NE(probe::ctrlByte(rng()) & 0x80u, 0u);
}

TEST(ProbeLanes, SwarNeverMissesAMatch)
{
    std::mt19937_64 rng(2);
    for (int i = 0; i < 200000; ++i) {
        // Mix fully random words with realistic ones (some ways
        // invalid = 0x00, some valid control bytes).
        std::uint64_t word = rng();
        if (i % 2 == 0) {
            word = 0;
            for (unsigned byte = 0; byte < 8; ++byte) {
                if (rng() & 1) {
                    word |= std::uint64_t{probe::ctrlByte(rng())}
                            << (8 * byte);
                }
            }
        }
        const std::uint8_t target = probe::ctrlByte(rng());
        const std::uint32_t exact = exactWays(word, target);
        const std::uint32_t swar =
            probe::candidateWaysSwar(word, target);
        const std::uint32_t dispatched =
            probe::candidateWays(word, target);
        // No false negatives, ever (a miss would drop a resident
        // entry); false positives are allowed and filtered by the
        // full-tag confirmation.
        EXPECT_EQ(exact & ~swar, 0u) << "word=" << word;
        EXPECT_EQ(exact & ~dispatched, 0u) << "word=" << word;
        // An invalid way (high bit clear) must never be a candidate:
        // allocate()'s victim scan trusts the valid bit.
        for (unsigned byte = 0; byte < 8; ++byte) {
            const auto ctrl =
                static_cast<std::uint8_t>(word >> (8 * byte));
            if ((ctrl & 0x80u) == 0) {
                EXPECT_EQ(swar & (1u << byte), 0u) << "word=" << word;
                EXPECT_EQ(dispatched & (1u << byte), 0u);
            }
        }
    }
}

TEST(ProbeLanes, AllInvalidWordYieldsNoCandidates)
{
    for (int t = 0; t < 128; ++t) {
        const auto target =
            static_cast<std::uint8_t>(0x80u | static_cast<unsigned>(t));
        EXPECT_EQ(probe::candidateWaysSwar(0, target), 0u);
        EXPECT_EQ(probe::candidateWays(0, target), 0u);
    }
}

TEST(ProbeLanes, CompressByteMask)
{
    EXPECT_EQ(probe::compressByteMask(0), 0u);
    EXPECT_EQ(probe::compressByteMask(0x80u), 1u);
    EXPECT_EQ(probe::compressByteMask(0x8000000000000000ull), 0x80u);
    EXPECT_EQ(probe::compressByteMask(0x8080000000008000ull), 0xc2u);
}

TEST(LaneArena, AlignedZeroedAndBounded)
{
    LaneArena arena(LaneArena::laneBytes<std::uint64_t>(10) +
                    LaneArena::laneBytes<std::uint8_t>(3));
    std::uint64_t *words = arena.alloc<std::uint64_t>(10);
    std::uint8_t *bytes = arena.alloc<std::uint8_t>(3);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(words) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(bytes) % 64, 0u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(words[i], 0u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(bytes[i], 0u);
    // The arena is exactly sized: one more lane must throw.
    EXPECT_THROW(arena.alloc<std::uint8_t>(1), std::logic_error);
}

TEST(DirtySets, WalkIsAscendingAndBounded)
{
    DirtySets dirty(100);
    EXPECT_EQ(dirty.next(0), 100u);
    dirty.mark(70);
    dirty.mark(3);
    dirty.mark(63);
    EXPECT_EQ(dirty.next(0), 3u);
    EXPECT_EQ(dirty.next(4), 63u);
    EXPECT_EQ(dirty.next(64), 70u);
    EXPECT_EQ(dirty.next(71), 100u);
    dirty.clear(63);
    EXPECT_EQ(dirty.next(4), 70u);

    // markAll raises every set, and the walk stops at size().
    dirty.markAll();
    for (std::size_t set = 0; set < 100; ++set)
        EXPECT_EQ(dirty.next(set), set);
    EXPECT_EQ(dirty.next(100), 100u);
    EXPECT_EQ(dirty.next(127), 100u);
}

// ---------------------------------------------------------------
// Scalar reference implementations (the pre-SoA code, verbatim
// semantics, trimmed to the observable surface)
// ---------------------------------------------------------------

struct RefLbEntry
{
    bool valid = false;
    std::uint64_t tag = 0;
    std::uint64_t lruStamp = 0;
    std::uint64_t payload = 0; ///< stands in for the cold fields
};

class RefLoadBuffer
{
  public:
    RefLoadBuffer(std::size_t entries, unsigned assoc)
        : assoc_(assoc), sets_(entries / assoc), entries_(entries)
    {
    }

    int
    lookup(std::uint64_t pc)
    {
        const std::size_t set = (pc >> 2) % sets_;
        const std::uint64_t tag = pc >> 2;
        for (unsigned w = 0; w < assoc_; ++w) {
            RefLbEntry &entry = entries_[set * assoc_ + w];
            if (entry.valid && entry.tag == tag) {
                entry.lruStamp = ++stamp_;
                return static_cast<int>(set * assoc_ + w);
            }
        }
        return -1;
    }

    int
    allocate(std::uint64_t pc)
    {
        const std::size_t set = (pc >> 2) % sets_;
        RefLbEntry *victim = &entries_[set * assoc_];
        for (unsigned w = 1; w < assoc_; ++w) {
            RefLbEntry &entry = entries_[set * assoc_ + w];
            if (!victim->valid)
                break;
            if (!entry.valid || entry.lruStamp < victim->lruStamp)
                victim = &entry;
        }
        *victim = RefLbEntry{};
        victim->valid = true;
        victim->tag = pc >> 2;
        victim->lruStamp = ++stamp_;
        ++allocations_;
        return static_cast<int>(victim - entries_.data());
    }

    void
    clear()
    {
        for (auto &entry : entries_)
            entry = RefLbEntry{};
    }

    std::uint64_t lruClock() const { return stamp_; }
    std::uint64_t allocations() const { return allocations_; }
    const RefLbEntry &at(std::size_t i) const { return entries_[i]; }
    std::size_t size() const { return entries_.size(); }
    RefLbEntry &at(std::size_t i) { return entries_[i]; }

  private:
    unsigned assoc_;
    std::size_t sets_;
    std::vector<RefLbEntry> entries_;
    std::uint64_t stamp_ = 0;
    std::uint64_t allocations_ = 0;
};

class RefLinkTable
{
  public:
    explicit RefLinkTable(const CapConfig &config)
        : config_(config),
          assoc_(config.ltAssoc < 1 ? 1 : config.ltAssoc),
          sets_((std::size_t{1} << config.ltIndexBits()) / assoc_),
          entries_(std::size_t{1} << config.ltIndexBits())
    {
        if (config_.pfTableBits != 0) {
            pfTable_.resize(std::size_t{1} << config_.pfTableBits);
            pfTableValid_.resize(pfTable_.size(), false);
        }
    }

    LTLookup
    lookup(std::uint64_t hist) const
    {
        LTLookup result;
        const std::size_t base = setIndex(hist) * assoc_;
        const std::uint64_t hist_tag = tag(hist);
        for (unsigned w = 0; w < assoc_; ++w) {
            const LTEntry &entry = entries_[base + w];
            if (!entry.valid)
                continue;
            if (config_.ltTagBits == 0 || entry.tag == hist_tag) {
                result.hit = true;
                result.tagMatch = true;
                result.link = entry.link;
                return result;
            }
            if (w == 0 && assoc_ == 1) {
                result.hit = true;
                result.link = entry.link;
            }
        }
        return result;
    }

    bool
    update(std::uint64_t hist, std::uint64_t base)
    {
        LTEntry &entry = selectVictim(hist);
        const std::uint8_t pf_new = pfBitsOf(base);

        bool pf_match;
        if (config_.pfTableBits != 0) {
            const std::size_t pf_index = static_cast<std::size_t>(
                hist & mask(config_.pfTableBits));
            pf_match = pfTableValid_[pf_index] &&
                pfTable_[pf_index] == pf_new;
            pfTable_[pf_index] = pf_new;
            pfTableValid_[pf_index] = true;
        } else {
            pf_match = entry.pfValid && entry.pf == pf_new;
            entry.pf = pf_new;
            entry.pfValid = true;
        }

        const bool install =
            !entry.valid || config_.pfBits == 0 || pf_match;
        if (install) {
            if (entry.valid && entry.link != base)
                ++linkOverwrites_;
            entry.valid = true;
            entry.tag = tag(hist);
            entry.link = base;
            entry.lru = ++stamp_;
            ++linkWrites_;
        } else {
            ++pfFiltered_;
        }
        return install;
    }

    void
    clear()
    {
        for (auto &entry : entries_)
            entry = LTEntry{};
        std::fill(pfTableValid_.begin(), pfTableValid_.end(), false);
    }

    std::uint64_t lruClock() const { return stamp_; }
    std::uint64_t linkWrites() const { return linkWrites_; }
    std::uint64_t linkOverwrites() const { return linkOverwrites_; }
    std::uint64_t pfFiltered() const { return pfFiltered_; }
    const LTEntry &at(std::size_t i) const { return entries_[i]; }
    std::size_t size() const { return entries_.size(); }
    std::size_t pfTableSize() const { return pfTable_.size(); }
    std::uint8_t pfTableValueAt(std::size_t i) const
    {
        return pfTable_[i];
    }
    bool pfTableValidAt(std::size_t i) const
    {
        return pfTableValid_[i];
    }

  private:
    std::size_t
    setIndex(std::uint64_t hist) const
    {
        return static_cast<std::size_t>(hist &
                                        mask(config_.ltIndexBits())) %
            sets_;
    }

    std::uint64_t
    tag(std::uint64_t hist) const
    {
        if (config_.ltTagBits == 0)
            return 0;
        return bits(hist,
                    config_.ltIndexBits() + config_.ltTagBits - 1,
                    config_.ltIndexBits());
    }

    LTEntry &
    selectVictim(std::uint64_t hist)
    {
        const std::size_t base = setIndex(hist) * assoc_;
        const std::uint64_t hist_tag = tag(hist);
        LTEntry *victim = &entries_[base];
        for (unsigned w = 0; w < assoc_; ++w) {
            LTEntry &entry = entries_[base + w];
            if (entry.valid && entry.tag == hist_tag)
                return entry;
            if (!entry.valid)
                victim = &entry;
            else if (victim->valid && entry.lru < victim->lru)
                victim = &entry;
        }
        return *victim;
    }

    std::uint8_t
    pfBitsOf(std::uint64_t base) const
    {
        if (config_.pfBits == 0)
            return 0;
        return static_cast<std::uint8_t>(
            bits(base, 2 + config_.pfBits - 1, 2));
    }

    CapConfig config_;
    unsigned assoc_;
    std::size_t sets_;
    std::vector<LTEntry> entries_;
    std::vector<std::uint8_t> pfTable_;
    std::vector<bool> pfTableValid_;
    std::uint64_t stamp_ = 0;
    std::uint64_t linkWrites_ = 0;
    std::uint64_t linkOverwrites_ = 0;
    std::uint64_t pfFiltered_ = 0;
};

// ---------------------------------------------------------------
// Differential fuzz: LoadBuffer vs scalar reference
// ---------------------------------------------------------------

void
fuzzLoadBuffer(std::size_t entries, unsigned assoc, std::uint64_t seed)
{
    LoadBufferConfig config;
    config.entries = entries;
    config.assoc = assoc;
    ASSERT_TRUE(config.validate().hasValue());

    LoadBuffer lb(config);
    RefLoadBuffer ref(entries, assoc);
    std::mt19937_64 rng(seed);

    // A PC pool ~3x capacity forces evictions and set collisions.
    const std::uint64_t pc_pool = 3 * entries;
    std::vector<std::pair<std::uint64_t, LBHandle>> handles;
    std::uint64_t next_payload = 1;

    auto slotOf = [&lb](LBEntry *entry) {
        return entry == nullptr
            ? -1
            : static_cast<int>(lb.handleOf(*entry).slot);
    };

    for (int op = 0; op < 30000; ++op) {
        const std::uint64_t pc = 0x1000 + 4 * (rng() % pc_pool);
        const std::uint64_t kind = rng() % 100;
        if (kind < 70) {
            // Lookup, allocating on miss like the predictors do (an
            // unconditional allocate could install duplicate tags in
            // one set, where acquire's fast path and lookup's scan
            // order legitimately pick different copies — in scalar
            // and SoA alike). On hit both sides see the same slot and
            // payload, and both write through it.
            LBEntry *entry = lb.lookup(pc);
            int ref_slot = ref.lookup(pc);
            ASSERT_EQ(slotOf(entry), ref_slot) << "op " << op;
            if (entry != nullptr) {
                ASSERT_EQ(entry->lastAddr,
                          ref.at(static_cast<std::size_t>(ref_slot))
                              .payload);
            } else if (kind < 50) {
                // Allocate: victim choice must be identical.
                entry = &lb.allocate(pc);
                ref_slot = ref.allocate(pc);
                ASSERT_EQ(slotOf(entry), ref_slot) << "op " << op;
            }
            if (entry != nullptr) {
                entry->lastAddr = next_payload;
                ref.at(static_cast<std::size_t>(ref_slot)).payload =
                    next_payload;
                ++next_payload;
                if (rng() % 4 == 0)
                    handles.emplace_back(pc, lb.handleOf(*entry));
            }
        } else if (kind < 99 || handles.empty()) {
            // Acquire through a remembered (possibly stale) handle,
            // sometimes against a different PC: documented to be
            // observably identical to lookup(pc).
            const std::uint64_t use_pc =
                handles.empty() || (rng() % 3 == 0)
                ? pc
                : handles[rng() % handles.size()].first;
            const LBHandle handle = handles.empty()
                ? LBHandle{}
                : handles[rng() % handles.size()].second;
            LBEntry *entry = lb.acquire(use_pc, handle);
            const int ref_slot = ref.lookup(use_pc);
            ASSERT_EQ(slotOf(entry), ref_slot) << "op " << op;
        } else {
            lb.clear();
            ref.clear();
            handles.clear();
        }
    }

    // Full-state equivalence at the end of the run.
    EXPECT_EQ(lb.lruClock(), ref.lruClock());
    EXPECT_EQ(lb.allocations(), ref.allocations());
    for (std::size_t i = 0; i < lb.numEntries(); ++i) {
        const LBEntryImage image = lb.imageAt(i);
        const RefLbEntry &expect = ref.at(i);
        ASSERT_EQ(image.valid, expect.valid) << "slot " << i;
        if (!image.valid)
            continue;
        ASSERT_EQ(image.tag, expect.tag) << "slot " << i;
        ASSERT_EQ(image.lruStamp, expect.lruStamp) << "slot " << i;
        ASSERT_EQ(image.lastAddr, expect.payload) << "slot " << i;
        ASSERT_TRUE(lb.lanesCoherentAt(i));
    }
}

TEST(LoadBufferDifferential, TwoWay)
{
    fuzzLoadBuffer(64, 2, 101);
}

TEST(LoadBufferDifferential, DirectMapped)
{
    fuzzLoadBuffer(16, 1, 102);
}

TEST(LoadBufferDifferential, EightWay)
{
    fuzzLoadBuffer(64, 8, 103);
}

TEST(LoadBufferDifferential, SixteenWayMultiWordSets)
{
    // 16 ways = two packed control words per set: exercises the
    // word-loop in lookup().
    fuzzLoadBuffer(128, 16, 104);
}

TEST(LoadBufferDifferential, PaperGeometry)
{
    fuzzLoadBuffer(4096, 2, 105);
}

// ---------------------------------------------------------------
// Differential fuzz: LinkTable vs scalar reference
// ---------------------------------------------------------------

void
fuzzLinkTable(const CapConfig &config, std::uint64_t seed)
{
    ASSERT_TRUE(config.validate().hasValue());
    LinkTable lt(config);
    RefLinkTable ref(config);
    std::mt19937_64 rng(seed);

    const std::uint64_t hist_mask = mask(config.historyBits());
    for (int op = 0; op < 30000; ++op) {
        // Small base pool: PF-bit collisions and repeats both occur.
        const std::uint64_t hist = rng() & hist_mask;
        const std::uint64_t base = 0x10000 + 4 * (rng() % 64);
        const std::uint64_t kind = rng() % 100;
        if (kind < 40) {
            const LTLookup got = lt.lookup(hist);
            const LTLookup expect = ref.lookup(hist);
            ASSERT_EQ(got.hit, expect.hit) << "op " << op;
            ASSERT_EQ(got.tagMatch, expect.tagMatch) << "op " << op;
            ASSERT_EQ(got.link, expect.link) << "op " << op;
        } else if (kind < 99) {
            ASSERT_EQ(lt.update(hist, base), ref.update(hist, base))
                << "op " << op;
        } else {
            lt.clear();
            ref.clear();
        }
    }

    EXPECT_EQ(lt.lruClock(), ref.lruClock());
    EXPECT_EQ(lt.linkWrites(), ref.linkWrites());
    EXPECT_EQ(lt.linkOverwrites(), ref.linkOverwrites());
    EXPECT_EQ(lt.pfFiltered(), ref.pfFiltered());
    ASSERT_EQ(lt.numEntries(), ref.size());
    for (std::size_t i = 0; i < lt.numEntries(); ++i) {
        const LTEntry image = lt.imageAt(i);
        const LTEntry &expect = ref.at(i);
        ASSERT_EQ(image.valid, expect.valid) << "slot " << i;
        ASSERT_EQ(image.tag, expect.tag) << "slot " << i;
        ASSERT_EQ(image.link, expect.link) << "slot " << i;
        ASSERT_EQ(image.pf, expect.pf) << "slot " << i;
        ASSERT_EQ(image.pfValid, expect.pfValid) << "slot " << i;
        ASSERT_EQ(image.lru, expect.lru) << "slot " << i;
        ASSERT_TRUE(lt.lanesCoherentAt(i));
    }
    ASSERT_EQ(lt.pfTableSize(), ref.pfTableSize());
    for (std::size_t i = 0; i < lt.pfTableSize(); ++i) {
        ASSERT_EQ(lt.pfTableValidAt(i), ref.pfTableValidAt(i));
        if (ref.pfTableValidAt(i)) {
            ASSERT_EQ(lt.pfTableValueAt(i), ref.pfTableValueAt(i));
        }
    }
}

TEST(LinkTableDifferential, DirectMappedTagged)
{
    // Small direct-mapped table with tags: exercises the
    // tag-mismatch fallback hit (hit without tagMatch).
    CapConfig config;
    config.ltEntries = 16;
    config.ltTagBits = 6;
    fuzzLinkTable(config, 201);
}

TEST(LinkTableDifferential, TwoWayAssociative)
{
    CapConfig config;
    config.ltEntries = 16;
    config.ltAssoc = 2;
    config.ltTagBits = 6;
    fuzzLinkTable(config, 202);
}

TEST(LinkTableDifferential, FourWayAssociative)
{
    CapConfig config;
    config.ltEntries = 32;
    config.ltAssoc = 4;
    config.ltTagBits = 8;
    fuzzLinkTable(config, 203);
}

TEST(LinkTableDifferential, TaglessDirectMapped)
{
    CapConfig config;
    config.ltEntries = 16;
    config.ltTagBits = 0;
    fuzzLinkTable(config, 204);
}

TEST(LinkTableDifferential, PfBitsDisabled)
{
    CapConfig config;
    config.ltEntries = 16;
    config.ltTagBits = 6;
    config.pfBits = 0;
    fuzzLinkTable(config, 205);
}

TEST(LinkTableDifferential, DecoupledPfTable)
{
    CapConfig config;
    config.ltEntries = 16;
    config.ltTagBits = 6;
    config.pfTableBits = 6;
    fuzzLinkTable(config, 206);
}

TEST(LinkTableDifferential, PaperGeometry)
{
    fuzzLinkTable(CapConfig{}, 207);
}

// ---------------------------------------------------------------
// Raw-image edge cases the fuzz cannot reach (fault injection can)
// ---------------------------------------------------------------

TEST(LinkTableImages, Bit63TagRoundTripsAndNeverMatches)
{
    // setImageAt may store an arbitrary 64-bit tag (a fault flip can
    // set bit 63, which the packed probe word folds under the valid
    // bit). The image must round-trip exactly, and no real lookup —
    // whose tags are at most 63 bits wide — may match it.
    CapConfig config;
    config.ltEntries = 16;
    config.ltTagBits = 6;
    LinkTable lt(config);

    LTEntry entry;
    entry.valid = true;
    entry.tag = (std::uint64_t{1} << 63) | 0x5;
    entry.link = 0xabcd;
    lt.setImageAt(0, entry);

    const LTEntry back = lt.imageAt(0);
    EXPECT_EQ(back.tag, entry.tag);
    EXPECT_TRUE(back.valid);
    EXPECT_TRUE(lt.lanesCoherentAt(0));

    // hist with index bits 0 and tag bits 0x5: same low-63 pattern,
    // but the full tag differs — the direct-mapped fallback may form
    // an address, yet the tag confidence filter must not pass.
    const std::uint64_t hist = std::uint64_t{0x5} << 4;
    const LTLookup result = lt.lookup(hist);
    EXPECT_TRUE(result.hit);
    EXPECT_FALSE(result.tagMatch);
}

TEST(LoadBufferImages, ImageRoundTripPreservesProbeState)
{
    LoadBufferConfig config;
    config.entries = 8;
    config.assoc = 2;
    LoadBuffer lb(config);
    lb.allocate(0x1000).lastAddr = 0x42;

    LoadBuffer copy(config);
    for (std::size_t i = 0; i < lb.numEntries(); ++i)
        copy.setImageAt(i, lb.imageAt(i));
    copy.setLruClock(lb.lruClock());

    LBEntry *entry = copy.lookup(0x1000);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->lastAddr, 0x42u);
    EXPECT_EQ(copy.lookup(0x2000), nullptr);
}

// ---------------------------------------------------------------
// state_io round trip over the SoA layout
// ---------------------------------------------------------------

TEST(ProbeLanesStateIo, SnapshotRestoreIsImageIdentical)
{
    HybridConfig config;
    config.lb.entries = 64; // small: heavy aliasing in the fuzz run
    config.cap.ltEntries = 64;
    HybridPredictor pred(config);

    std::mt19937_64 rng(42);
    auto drive = [&rng](HybridPredictor &p, int loads) {
        for (int i = 0; i < loads; ++i) {
            LoadInfo info;
            info.pc = 0x1000 + 4 * (rng() % 96);
            info.immOffset = static_cast<std::int32_t>(rng() % 32);
            info.ghr = rng();
            const Prediction prediction = p.predict(info);
            const std::uint64_t addr =
                0x10000 + 16 * (rng() % 256) + (rng() % 4 == 0
                    ? 0
                    : static_cast<std::uint64_t>(info.immOffset));
            p.update(info, addr, prediction);
        }
    };
    drive(pred, 5000);

    const Expected<std::string> encoded = encodePredictorState(pred);
    ASSERT_TRUE(encoded.hasValue());
    HybridPredictor restored(config);
    ASSERT_TRUE(decodePredictorState(*encoded, restored).hasValue());

    const LoadBuffer &lb = pred.loadBuffer();
    const LoadBuffer &lb2 = restored.loadBuffer();
    EXPECT_EQ(lb2.lruClock(), lb.lruClock());
    for (std::size_t i = 0; i < lb.numEntries(); ++i) {
        const LBEntryImage a = lb.imageAt(i);
        const LBEntryImage b = lb2.imageAt(i);
        ASSERT_EQ(a.valid, b.valid) << "slot " << i;
        ASSERT_EQ(a.tag, b.tag) << "slot " << i;
        ASSERT_EQ(a.lruStamp, b.lruStamp) << "slot " << i;
        ASSERT_EQ(a.lastAddr, b.lastAddr) << "slot " << i;
        ASSERT_EQ(a.hist.value(), b.hist.value()) << "slot " << i;
        ASSERT_TRUE(lb2.lanesCoherentAt(i)) << "slot " << i;
    }
    const LinkTable &lt = pred.capComponent().linkTable();
    const LinkTable &lt2 = restored.capComponent().linkTable();
    EXPECT_EQ(lt2.lruClock(), lt.lruClock());
    for (std::size_t i = 0; i < lt.numEntries(); ++i) {
        const LTEntry a = lt.imageAt(i);
        const LTEntry b = lt2.imageAt(i);
        ASSERT_EQ(a.valid, b.valid) << "slot " << i;
        ASSERT_EQ(a.tag, b.tag) << "slot " << i;
        ASSERT_EQ(a.link, b.link) << "slot " << i;
        ASSERT_EQ(a.pf, b.pf) << "slot " << i;
        ASSERT_EQ(a.pfValid, b.pfValid) << "slot " << i;
        ASSERT_EQ(a.lru, b.lru) << "slot " << i;
        ASSERT_TRUE(lt2.lanesCoherentAt(i)) << "slot " << i;
    }

    // Continuation equivalence: both predictors must agree on a
    // further run (same rng stream for both via a snapshot of it).
    std::mt19937_64 fork = rng;
    auto replay = [](HybridPredictor &p, std::mt19937_64 &r) {
        std::uint64_t fingerprint = 0;
        for (int i = 0; i < 2000; ++i) {
            LoadInfo info;
            info.pc = 0x1000 + 4 * (r() % 96);
            info.immOffset = static_cast<std::int32_t>(r() % 32);
            info.ghr = r();
            const Prediction prediction = p.predict(info);
            const std::uint64_t addr =
                0x10000 + 16 * (r() % 256) + (r() % 4 == 0
                    ? 0
                    : static_cast<std::uint64_t>(info.immOffset));
            p.update(info, addr, prediction);
            fingerprint = mix64(fingerprint ^
                                (prediction.speculate
                                     ? prediction.addr + 1
                                     : 0));
        }
        return fingerprint;
    };
    EXPECT_EQ(replay(pred, rng), replay(restored, fork));
}

} // namespace
} // namespace clap
