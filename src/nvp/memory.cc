#include "nvp/memory.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "util/bit_ops.h"
#include "util/logging.h"

namespace inc::nvp
{

DataMemory::DataMemory(util::Rng rng, std::size_t size)
    : size_(size), main_(size), main_prec_(size), rng_(rng)
{
}

void
DataMemory::outOfRange(std::uint32_t addr)
{
    util::panic("data memory address out of range: %u", addr);
}

void
DataMemory::addAcRegion(const AcRegion &region)
{
    if (region.start + region.length > size_)
        util::fatal("AC region [%u, %u) out of memory bounds",
                    region.start, region.start + region.length);
    ac_regions_.push_back(region);
}

void
DataMemory::addVersionedRegion(std::uint32_t start, std::uint32_t length,
                               bool write_through)
{
    if (start + length > size_)
        util::fatal("versioned region [%u, %u) out of memory bounds",
                    start, start + length);
    VersionedRegion region;
    region.start = start;
    region.length = length;
    region.write_through = write_through;
    region.cells.resize(length);
    region.written.resize(length);
    versioned_.push_back(std::move(region));
}

void
DataMemory::storeLane(VersionedRegion &r, int lane, std::uint32_t addr,
                      std::uint8_t value, int bits)
{
    const std::uint32_t i = addr - r.start;
    auto &cell = r.cells[i];
    cell.value[static_cast<size_t>(lane)] = value;
    cell.prec[static_cast<size_t>(lane)] = static_cast<std::uint8_t>(bits);
    r.written[i] |= static_cast<std::uint8_t>(1u << lane);
    // Higher-bits write-through arbitration into the main version —
    // output regions only; lane-private scratch never disturbs lane 0.
    if (r.write_through) {
        if (bits >= main_prec_[addr]) {
            INC_OBS_COUNT(obs_, wt_commits);
            markDirty(addr);
            main_[addr] = value;
            main_prec_[addr] = static_cast<std::uint8_t>(bits);
        } else {
            INC_OBS_COUNT(obs_, wt_rejects);
        }
    }
}

void
DataMemory::resetVersionedRange(std::uint32_t start, std::uint32_t len)
{
    INC_OBS_ADD(obs_, version_resets, len);
    if (len != 0 && std::uint64_t{start} + len > size_)
        outOfRange(static_cast<std::uint32_t>(
            std::max<std::uint64_t>(start, size_)));
    markDirtyRange(start, len);
    const std::uint32_t end = start + len;
    std::fill(main_.begin() + start, main_.begin() + end, 0);
    std::fill(main_prec_.begin() + start, main_prec_.begin() + end, 0);
    // Each region's part of the range. Where regions overlap, only the
    // first is ever read (findVersioned), so clearing the others' cells
    // too changes nothing observable.
    for (VersionedRegion &r : versioned_) {
        const std::uint32_t lo = std::max(start, r.start);
        const std::uint32_t hi = std::min(end, r.start + r.length);
        if (lo >= hi)
            continue;
        std::fill(r.cells.begin() + (lo - r.start),
                  r.cells.begin() + (hi - r.start), VersionedRegion::Cell{});
        std::fill(r.written.begin() + (lo - r.start),
                  r.written.begin() + (hi - r.start), 0);
    }
}

void
DataMemory::clearLaneVersions(int lane)
{
    if (lane <= 0 || lane >= kMaxVersions)
        util::panic("clearLaneVersions: bad lane %d", lane);
    INC_OBS_COUNT(obs_, lane_clears);
    const auto mask = static_cast<std::uint8_t>(~(1u << lane));
    for (VersionedRegion &r : versioned_) {
        for (std::uint8_t &written : r.written)
            written &= mask;
    }
}

std::uint32_t
DataMemory::assemble(std::uint32_t start, std::uint32_t len,
                     isa::AssembleMode mode)
{
    std::uint32_t processed = 0;
    for (std::uint32_t addr = start; addr < start + len; ++addr) {
        checkAddr(addr);
        VersionedRegion *r = findVersioned(addr);
        if (!r)
            continue;
        const std::uint32_t i = addr - r->start;
        auto &cell = r->cells[i];
        std::uint8_t &written = r->written[i];
        ++processed;
        int value = main_[addr];
        int prec = main_prec_[addr];
        for (int lane = 1; lane < kMaxVersions; ++lane) {
            if (!(written & (1u << lane)))
                continue;
            const int lv = cell.value[static_cast<size_t>(lane)];
            const int lp = cell.prec[static_cast<size_t>(lane)];
            switch (mode) {
              case isa::AssembleMode::higherbits:
                if (lp > prec) {
                    value = lv;
                    prec = lp;
                }
                break;
              case isa::AssembleMode::sum: {
                // Delta-merge: a lane's previously merged contribution
                // is replaced, not re-added, so assembling the same
                // lane values twice (recompute passes, re-adopted
                // frames) leaves main unchanged.
                const int before =
                    (cell.merged & (1u << lane))
                        ? cell.merged_value[static_cast<size_t>(lane)]
                        : 0;
                value = std::clamp(value + lv - before, 0, 255);
                cell.merged_value[static_cast<size_t>(lane)] =
                    static_cast<std::uint8_t>(lv);
                cell.merged |= static_cast<std::uint8_t>(1u << lane);
                prec = std::max(prec, lp);
                break;
              }
              case isa::AssembleMode::max:
                value = std::max(value, lv);
                prec = std::max(prec, lp);
                break;
              case isa::AssembleMode::min:
                value = std::min(value, lv);
                prec = std::max(prec, lp);
                break;
            }
        }
        written = 0;
        markDirty(addr);
        main_[addr] = static_cast<std::uint8_t>(value);
        main_prec_[addr] = static_cast<std::uint8_t>(prec);
    }
    INC_OBS_ADD(obs_, assemble_bytes, processed);
    return processed;
}

int
DataMemory::precisionAt(std::uint32_t addr) const
{
    checkAddr(addr);
    return main_prec_[addr];
}

void
DataMemory::applyOutageDecay(double duration_tenth_ms)
{
    INC_OBS_COUNT(obs_, decay_passes);
    for (const AcRegion &region : ac_regions_) {
        if (region.policy == nvm::RetentionPolicy::full)
            continue;
        const int cutoff =
            nvm::expiredCutoff(region.policy, duration_tenth_ms);
        if (cutoff == 0)
            continue;
        // One violation event per (outage, bit index) — Fig. 22 counts.
        for (int b = 1; b <= cutoff; ++b)
            ++failures_.violations[static_cast<size_t>(b - 1)];

        // Bit b of every byte lane: the expired planes, and the unit
        // for summing one plane's lanes.
        constexpr std::uint64_t kLanes = 0x0101010101010101ULL;
        const std::uint64_t expired =
            kLanes * util::lowMask(static_cast<unsigned>(cutoff));
        // A local generator: byte stores into main_ may alias rng_,
        // which would force its state through memory on every draw.
        util::Rng rng = rng_;
        std::uint8_t *const bytes = main_.data();
        const bool track = !dirty_.empty();
        std::array<std::uint64_t, 8> flips{};
        // Settles n <= 8 bytes at addr with one draw per byte, in
        // address order, exactly as a byte-at-a-time loop would.
        const auto settle = [&](std::uint32_t addr, std::size_t n) {
            std::array<std::uint8_t, 8> draws{};
            for (std::size_t k = 0; k < n; ++k)
                draws[k] = static_cast<std::uint8_t>(rng.next());
            std::uint64_t old = 0;
            std::uint64_t rnd = 0;
            std::memcpy(&old, bytes + addr, n);
            std::memcpy(&rnd, draws.data(), sizeof rnd);
            const std::uint64_t diff = (old ^ rnd) & expired;
            if (diff == 0)
                return;
            // Each plane holds at most one set bit per byte lane, so
            // the multiply sums the lanes into the top byte without
            // carries: a popcount of the plane.
            for (int b = 0; b < cutoff; ++b)
                flips[static_cast<std::size_t>(b)] +=
                    (((diff >> b) & kLanes) * kLanes) >> 56;
            const std::uint64_t neu = old ^ diff;
            std::memcpy(bytes + addr, &neu, n);
            if (!track)
                return;
            std::array<std::uint8_t, 8> changed{};
            std::memcpy(changed.data(), &diff, sizeof diff);
            for (std::size_t k = 0; k < n; ++k) {
                if (changed[k])
                    markDirty(addr + static_cast<std::uint32_t>(k));
            }
        };
        const std::uint32_t end = region.start + region.length;
        std::uint32_t addr = region.start;
        for (; end - addr >= 8; addr += 8)
            settle(addr, 8);
        if (addr < end)
            settle(addr, end - addr);
        rng_ = rng;
        for (std::size_t b = 0; b < flips.size(); ++b)
            failures_.flips[b] += flips[b];
    }
}

void
DataMemory::enableDirtyTracking()
{
    if (!dirty_.empty())
        return;
    const std::size_t words = (size_ + kDirtyWordBytes - 1) / kDirtyWordBytes;
    dirty_.assign((words + 63) / 64, 0);
}

void
DataMemory::clearDirty()
{
    std::fill(dirty_.begin(), dirty_.end(), 0);
}

std::uint64_t
DataMemory::dirtyWordCount() const
{
    std::uint64_t n = 0;
    for (std::uint64_t word : dirty_)
        n += static_cast<std::uint64_t>(util::popcount64(word));
    return n;
}

std::uint8_t
DataMemory::hostRead8(std::uint32_t addr) const
{
    checkAddr(addr);
    return main_[addr];
}

void
DataMemory::hostWrite8(std::uint32_t addr, std::uint8_t value)
{
    checkAddr(addr);
    markDirty(addr);
    main_[addr] = value;
}

void
DataMemory::hostWriteBlock(std::uint32_t addr,
                           const std::vector<std::uint8_t> &data)
{
    if (addr + data.size() > size_)
        util::panic("hostWriteBlock out of range");
    markDirtyRange(addr, data.size());
    std::copy(data.begin(), data.end(), main_.begin() + addr);
}

std::vector<std::uint8_t>
DataMemory::snapshot(std::uint32_t start, std::uint32_t len) const
{
    if (start + len > size_)
        util::panic("snapshot out of range");
    return std::vector<std::uint8_t>(main_.begin() + start,
                                     main_.begin() + start + len);
}

std::vector<std::uint8_t>
DataMemory::precisionMask(std::uint32_t start, std::uint32_t len) const
{
    if (start + len > size_)
        util::panic("precisionMask range out of bounds");
    std::vector<std::uint8_t> mask(len, 0);
    for (std::uint32_t i = 0; i < len; ++i)
        mask[i] = main_prec_[start + i] > 0 ? 1 : 0;
    return mask;
}

double
DataMemory::coverage(std::uint32_t start, std::uint32_t len) const
{
    if (len == 0)
        return 1.0;
    if (start + len > size_)
        util::panic("coverage range out of bounds");
    std::uint32_t written = 0;
    for (std::uint32_t addr = start; addr < start + len; ++addr) {
        if (main_prec_[addr] > 0)
            ++written;
    }
    return static_cast<double>(written) / static_cast<double>(len);
}

} // namespace inc::nvp
