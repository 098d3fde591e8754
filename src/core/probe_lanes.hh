/**
 * @file
 * Probe-lane primitives for the struct-of-arrays table layout shared
 * by the LoadBuffer and the LinkTable: a 64-byte-aligned bump arena
 * so all hot lanes of one predictor live in one contiguous block, a
 * packed per-way control byte (valid bit + 7-bit tag fingerprint),
 * and a multi-tag compare that probes every way of a set at once.
 *
 * The compare has three implementations behind one entry point:
 *
 *  - SSE2 (any x86-64): `pcmpeqb` + `pmovmskb` over the control word,
 *    exact byte equality.
 *  - NEON (aarch64): `vceq_u8`, then the byte mask is compressed the
 *    SWAR way.
 *  - Portable SWAR: broadcast-XOR then Mycroft's zero-byte trick
 *    `(x - 0x01..) & ~x & 0x80..`. This flags every matching byte but
 *    may also flag a byte just above a match (borrow propagation), so
 *    callers MUST confirm each candidate against the full tag lane —
 *    which they do anyway, because the fingerprint is only 7 bits.
 *
 * All three return a way bitmask whose set bits are iterated in
 * ascending order, preserving the scalar first-match semantics after
 * full-tag confirmation. Invalid ways (control byte 0x00) can never
 * be flagged: every probe target has the valid bit (0x80) set, exact
 * compares never equal 0x00, and the SWAR residue `0x00 ^ target`
 * keeps its high bit, which the trick masks out.
 *
 * Beside the lanes, each table keeps one dirty flag per set
 * (DirtySets) for the dirty-set audit of core/audit.hh.
 */

#ifndef CLAP_CORE_PROBE_LANES_HH
#define CLAP_CORE_PROBE_LANES_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bits.hh"

#if defined(__SSE2__)
#include <emmintrin.h>
#define CLAP_PROBE_SSE2 1
#elif defined(__aarch64__) || defined(__ARM_NEON)
#include <arm_neon.h>
#define CLAP_PROBE_NEON 1
#endif

namespace clap
{

/** Hint the cache to pull @p addr for a read (no-op off GCC/Clang). */
inline void
prefetchRead(const void *addr)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
#else
    (void)addr;
#endif
}

/**
 * A fixed-capacity, 64-byte-aligned bump allocator backing the probe
 * lanes. One arena per predictor keeps the LB and LT lanes of a shard
 * in one contiguous block; a table built without an external arena
 * carries its own, sized by its laneBytes(). Returned lanes are
 * zero-initialized. Exceeding the capacity is a sizing bug in the
 * caller's laneBytes() and throws.
 */
class LaneArena
{
  public:
    static constexpr std::size_t kAlign = 64;

    explicit LaneArena(std::size_t bytes)
        : capacity_(static_cast<std::size_t>(
              alignUp(bytes == 0 ? kAlign : bytes, kAlign)))
    {
        storage_ = std::make_unique<unsigned char[]>(capacity_ + kAlign);
        const auto raw =
            reinterpret_cast<std::uintptr_t>(storage_.get());
        base_ = storage_.get() +
                (static_cast<std::size_t>(alignUp(raw, kAlign)) - raw);
        std::memset(base_, 0, capacity_);
    }

    LaneArena(const LaneArena &) = delete;
    LaneArena &operator=(const LaneArena &) = delete;

    /** Bytes one lane of @p count elements consumes (64B-rounded). */
    template <typename T>
    static constexpr std::size_t
    laneBytes(std::size_t count)
    {
        return static_cast<std::size_t>(alignUp(count * sizeof(T),
                                                kAlign));
    }

    /** Carve a zeroed, 64-byte-aligned lane of @p count elements. */
    template <typename T>
    T *
    alloc(std::size_t count)
    {
        const std::size_t bytes = laneBytes<T>(count);
        if (capacity_ - used_ < bytes) {
            throw std::logic_error(
                "LaneArena overflow: lane of " + std::to_string(bytes) +
                " bytes exceeds the " + std::to_string(capacity_) +
                "-byte arena (used " + std::to_string(used_) + ")");
        }
        T *lane = reinterpret_cast<T *>(base_ + used_);
        used_ += bytes;
        return lane;
    }

    std::size_t capacity() const { return capacity_; }
    std::size_t used() const { return used_; }

  private:
    std::unique_ptr<unsigned char[]> storage_;
    unsigned char *base_ = nullptr;
    std::size_t capacity_ = 0;
    std::size_t used_ = 0;
};

/**
 * One dirty flag per table set, a byte each. A table raises a set's
 * flag on every path that writes the set's state or hands out a
 * mutable entry in it; the dirty-set audit (core/audit.hh) clears the
 * flag once the set passes. So a clean set has not changed through
 * the table API since it last passed the audit. A byte rather than a
 * bit makes a mark one store with no load in front of it, on the
 * probe's hot path; the audit's walk pays instead, with a memchr.
 */
class DirtySets
{
  public:
    explicit DirtySets(std::size_t sets) : flags_(sets, 0) {}

    std::size_t size() const { return flags_.size(); }

    void mark(std::size_t set) { flags_[set] = 1; }

    void markAll() { std::fill(flags_.begin(), flags_.end(), 1); }

    void clear(std::size_t set) { flags_[set] = 0; }

    /** The first dirty set at or after @p from, or size() if none. */
    std::size_t
    next(std::size_t from) const
    {
        if (from >= flags_.size())
            return flags_.size();
        const void *hit = std::memchr(flags_.data() + from, 1,
                                      flags_.size() - from);
        return hit == nullptr
                   ? flags_.size()
                   : static_cast<const std::uint8_t *>(hit) - flags_.data();
    }

  private:
    std::vector<std::uint8_t> flags_;
};

namespace probe
{

constexpr std::uint64_t kLsbBytes = 0x0101010101010101ull;
constexpr std::uint64_t kMsbBytes = 0x8080808080808080ull;

/**
 * Control byte for a resident way: valid bit (0x80) over a 7-bit
 * multiplicative fingerprint of the full tag. Equal tags always hash
 * equal, so a fingerprint mismatch proves a tag mismatch; candidates
 * are confirmed against the full tag lane (~1/128 false positives).
 */
inline std::uint8_t
ctrlByte(std::uint64_t tag)
{
    return static_cast<std::uint8_t>(
        0x80u | ((tag * 0x9e3779b97f4a7c15ull) >> 57));
}

/** Compress a per-byte high-bit mask into a per-way bitmask. */
inline std::uint32_t
compressByteMask(std::uint64_t byte_mask)
{
    std::uint32_t ways = 0;
    while (byte_mask != 0) {
        ways |= 1u << (std::countr_zero(byte_mask) >> 3);
        byte_mask &= byte_mask - 1;
    }
    return ways;
}

/**
 * Portable SWAR candidate scan: the ways of @p ctrl_word whose control
 * byte equals @p target, as a bitmask (bit w = way w), possibly with
 * extra false-positive ways (see the file header). Always compiled so
 * the differential tests cover it on every platform.
 */
inline std::uint32_t
candidateWaysSwar(std::uint64_t ctrl_word, std::uint8_t target)
{
    const std::uint64_t x = ctrl_word ^ (kLsbBytes * target);
    return compressByteMask((x - kLsbBytes) & ~x & kMsbBytes);
}

/**
 * Candidate ways of one packed control word: the dispatch point the
 * tables probe through. Exact on SSE2; exact on NEON; SWAR otherwise
 * (callers confirm candidates against the full tag lane regardless).
 */
inline std::uint32_t
candidateWays(std::uint64_t ctrl_word, std::uint8_t target)
{
#if defined(CLAP_PROBE_SSE2)
    // Broadcast the target in a general register, not with
    // _mm_set1_epi8: under register pressure GCC builds that from a
    // byte spilled to the stack, and a 4-byte reload of a 1-byte store
    // cannot be store-forwarded, so the probe waits for the store
    // buffer to drain.
    const __m128i word =
        _mm_cvtsi64_si128(static_cast<long long>(ctrl_word));
    const __m128i wanted =
        _mm_cvtsi64_si128(static_cast<long long>(kLsbBytes * target));
    return static_cast<std::uint32_t>(
               _mm_movemask_epi8(_mm_cmpeq_epi8(word, wanted))) &
           0xffu;
#elif defined(CLAP_PROBE_NEON)
    const uint8x8_t word = vcreate_u8(ctrl_word);
    const uint8x8_t wanted = vdup_n_u8(target);
    const std::uint64_t eq =
        vget_lane_u64(vreinterpret_u64_u8(vceq_u8(word, wanted)), 0);
    return compressByteMask(eq & kMsbBytes);
#else
    return candidateWaysSwar(ctrl_word, target);
#endif
}

} // namespace probe

} // namespace clap

#endif // CLAP_CORE_PROBE_LANES_HH
