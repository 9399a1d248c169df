#include "nvp/register_file.h"

#include "util/logging.h"

namespace inc::nvp
{

void
RegisterFile::checkVersion(int version) const
{
    if (version < 0 || version >= kMaxLanes)
        util::panic("register version out of range: %d", version);
}

void
RegisterFile::checkReg(int reg) const
{
    if (reg < 0 || reg >= isa::kNumRegs)
        util::panic("register index out of range: %d", reg);
}

std::uint16_t
RegisterFile::read(int version, int reg) const
{
    checkVersion(version);
    checkReg(reg);
    if (reg == 0)
        return 0;
    return readFast(version, reg);
}

void
RegisterFile::write(int version, int reg, std::uint16_t value)
{
    checkVersion(version);
    checkReg(reg);
    writeFast(version, reg, value);
}

RegSnapshot
RegisterFile::snapshot(int version) const
{
    checkVersion(version);
    RegSnapshot regs;
    for (int r = 0; r < isa::kNumRegs; ++r)
        regs[static_cast<size_t>(r)] = readFast(version, r);
    return regs;
}

void
RegisterFile::load(int version, const RegSnapshot &regs)
{
    checkVersion(version);
    for (int r = 1; r < isa::kNumRegs; ++r)
        writeFast(version, r, regs[static_cast<size_t>(r)]);
}

void
RegisterFile::copyVersion(int src, int dst)
{
    checkVersion(src);
    checkVersion(dst);
    for (LaneWord &row : values_)
        row[static_cast<size_t>(dst)] = row[static_cast<size_t>(src)];
}

void
RegisterFile::clearVersion(int version)
{
    checkVersion(version);
    for (LaneWord &row : values_)
        row[static_cast<size_t>(version)] = 0;
}

bool
RegisterFile::isAc(int reg) const
{
    checkReg(reg);
    return (ac_mask_ >> reg) & 1;
}

std::uint16_t
RegisterFile::compareVersions(int version, int other) const
{
    checkVersion(other);
    return compareSnapshot(version, snapshot(other));
}

std::uint16_t
RegisterFile::compareSnapshot(int version, const RegSnapshot &regs) const
{
    checkVersion(version);
    std::uint16_t match = 0;
    for (int r = 0; r < isa::kNumRegs; ++r) {
        if (read(version, r) ==
            (r == 0 ? 0 : regs[static_cast<size_t>(r)]))
            match |= static_cast<std::uint16_t>(1u << r);
    }
    return match;
}

} // namespace inc::nvp
