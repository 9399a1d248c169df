#include "nvp/core.h"

#include <algorithm>

#include "util/bit_ops.h"
#include "util/logging.h"

namespace inc::nvp
{

namespace
{

} // namespace

const std::array<ExecEngine, kNumExecEngines> &
allExecEngines()
{
    static const std::array<ExecEngine, kNumExecEngines> kEngines = {
        ExecEngine::reference,
        ExecEngine::predecoded,
    };
    return kEngines;
}

std::string
execEngineNames()
{
    std::string out;
    for (ExecEngine e : allExecEngines()) {
        if (!out.empty())
            out += ",";
        out += execEngineName(e);
    }
    return out;
}

std::optional<ExecEngine>
execEngineFromName(const std::string &name)
{
    for (ExecEngine e : allExecEngines()) {
        if (name == execEngineName(e))
            return e;
    }
    return std::nullopt;
}

const char *
execEngineName(ExecEngine engine)
{
    switch (engine) {
    case ExecEngine::reference:
        return "reference";
    case ExecEngine::predecoded:
        return "predecoded";
    }
    return "unknown";
}

Core::Core(const isa::Program *program, DataMemory *memory,
           CoreConfig config, util::Rng rng)
    : program_(program), mem_(memory), config_(config), alu_(rng.split())
{
    if (!program_ || !mem_)
        util::panic("Core requires a program and a data memory");
    if (config_.max_lanes < 1 || config_.max_lanes > kMaxLanes)
        util::fatal("CoreConfig::max_lanes must be 1..%d", kMaxLanes);
    lanes_[0].active = true;
    if (config_.engine != ExecEngine::reference)
        decoded_ = isa::PredecodedProgram(*program_);
}

const LaneInfo &
Core::lane(int index) const
{
    if (index < 0 || index >= kMaxLanes)
        util::panic("lane index out of range: %d", index);
    return lanes_[static_cast<size_t>(index)];
}

int
Core::activeLaneCount() const
{
    int count = 0;
    for (const LaneInfo &l : lanes_) {
        if (l.active)
            ++count;
    }
    return count;
}

int
Core::freeLane() const
{
    for (int i = 1; i < config_.max_lanes; ++i) {
        if (!lanes_[static_cast<size_t>(i)].active)
            return i;
    }
    return -1;
}

void
Core::activateLane(int index, const RegSnapshot &regs, int bits,
                   std::uint16_t frame)
{
    if (index < 1 || index >= config_.max_lanes)
        util::panic("activateLane: bad lane %d", index);
    LaneInfo &l = lanes_[static_cast<size_t>(index)];
    if (l.active)
        util::panic("activateLane: lane %d already active", index);
    l.active = true;
    l.bits = bits;
    l.frame = frame;
    ++active_lanes_;
    rf_.load(index, regs);
    mem_->clearLaneVersions(index);
}

void
Core::deactivateLane(int index)
{
    if (index < 1 || index >= kMaxLanes)
        util::panic("deactivateLane: bad lane %d", index);
    LaneInfo &l = lanes_[static_cast<size_t>(index)];
    if (!l.active)
        return;
    l.active = false;
    --active_lanes_;
    mem_->clearLaneVersions(index);
}

void
Core::deactivateAllLanes()
{
    for (int i = 1; i < kMaxLanes; ++i)
        deactivateLane(i);
}

void
Core::setLaneBits(int index, int bits)
{
    if (index < 0 || index >= kMaxLanes)
        util::panic("setLaneBits: bad lane %d", index);
    if (bits < 1 || bits > 8)
        util::panic("setLaneBits: bits out of range %d", bits);
    lanes_[static_cast<size_t>(index)].bits = bits;
}

int
Core::incidentalBitsSum() const
{
    int sum = 0;
    for (int i = 1; i < kMaxLanes; ++i) {
        if (lanes_[static_cast<size_t>(i)].active)
            sum += lanes_[static_cast<size_t>(i)].bits;
    }
    return sum;
}

std::uint64_t
Core::totalInstret() const
{
    std::uint64_t total = 0;
    for (const LaneInfo &l : lanes_)
        total += l.instret;
    return total;
}

int
Core::effectiveBits(int lane) const
{
    if (!ac_en_)
        return 8;
    return lanes_[static_cast<size_t>(lane)].bits;
}

void
Core::executeDataOp(const isa::Instruction &inst, int lane)
{
    const std::uint16_t a = rf_.read(lane, inst.rs1);
    const std::uint16_t b = isa::readsRs2(inst.op)
                                ? rf_.read(lane, inst.rs2)
                                : inst.imm;
    std::uint16_t result = ApproxAlu::compute(inst.op, a, b);
    const int bits = effectiveBits(lane);
    if (config_.approx_alu && bits < 8 && isa::isDataOp(inst.op) &&
        rf_.isAc(inst.rd))
        result = alu_.injectNoise(result, bits);
    rf_.write(lane, inst.rd, result);
}

void
Core::executeLoad(const isa::Instruction &inst, int lane)
{
    const std::uint32_t addr =
        static_cast<std::uint16_t>(rf_.read(lane, inst.rs1) +
                                   inst.imm);
    const bool approx = config_.approx_mem && ac_en_;
    const int bits = effectiveBits(lane);
    std::uint16_t value = 0;
    switch (inst.op) {
      case isa::Op::ld8:
        value = mem_->load8(lane, addr, bits, approx);
        break;
      case isa::Op::ld8s:
        value = static_cast<std::uint16_t>(util::signExtend(
            mem_->load8(lane, addr, bits, approx), 8));
        break;
      case isa::Op::ld16: {
        const std::uint8_t lo = mem_->load8(lane, addr, bits, approx);
        const std::uint8_t hi = mem_->load8(
            lane, static_cast<std::uint16_t>(addr + 1), bits, approx);
        value = static_cast<std::uint16_t>(lo | (hi << 8));
        break;
      }
      default:
        util::panic("executeLoad: not a load");
    }
    rf_.write(lane, inst.rd, value);
}

void
Core::executeStore(const isa::Instruction &inst, int lane,
                   StepResult &result)
{
    const std::uint32_t addr =
        static_cast<std::uint16_t>(rf_.read(lane, inst.rs1) +
                                   inst.imm);
    const bool approx = config_.approx_mem && ac_en_;
    const int bits = effectiveBits(lane);
    const std::uint16_t value = rf_.read(lane, inst.rs2);
    mem_->store8(lane, addr, static_cast<std::uint8_t>(value), bits,
                 approx);
    if (inst.op == isa::Op::st16) {
        mem_->store8(lane, static_cast<std::uint16_t>(addr + 1),
                     static_cast<std::uint8_t>(value >> 8), bits, approx);
    }
    if (lane == 0)
        result.store_policy = mem_->policyAt(addr);
}

StepResult
Core::stepReference()
{
    StepResult result;
    INC_OBS_COUNT(obs_, steps);
    if (halted_) {
        result.op = isa::Op::halt;
        result.halted = true;
        result.lanes_committed = 0;
        INC_OBS_COUNT(obs_, instr_system);
        return result;
    }

    const isa::Instruction &inst = program_->at(pc_);
    result.op = inst.op;
    result.cycles = isa::opCycles(inst.op);
    result.lanes_committed = activeLaneCount();

    std::uint16_t next_pc = static_cast<std::uint16_t>(pc_ + 1);
    const isa::OpClass cls = isa::opClass(inst.op);

    switch (cls) {
      case isa::OpClass::system:
        INC_OBS_COUNT(obs_, instr_system);
        if (inst.op == isa::Op::halt) {
            halted_ = true;
            result.halted = true;
        }
        break;

      case isa::OpClass::alu:
      case isa::OpClass::mul:
      case isa::OpClass::div:
        INC_OBS_COUNT(obs_, instr_alu);
        for (int lane = 0; lane < kMaxLanes; ++lane) {
            if (lanes_[static_cast<size_t>(lane)].active)
                executeDataOp(inst, lane);
        }
        break;

      case isa::OpClass::load:
        INC_OBS_COUNT(obs_, instr_load);
        for (int lane = 0; lane < kMaxLanes; ++lane) {
            if (lanes_[static_cast<size_t>(lane)].active)
                executeLoad(inst, lane);
        }
        break;

      case isa::OpClass::store:
        INC_OBS_COUNT(obs_, instr_store);
        for (int lane = 0; lane < kMaxLanes; ++lane) {
            if (lanes_[static_cast<size_t>(lane)].active)
                executeStore(inst, lane, result);
        }
        break;

      case isa::OpClass::branch: {
        INC_OBS_COUNT(obs_, instr_branch);
        const std::uint16_t a = rf_.read(0, inst.rs1);
        const std::uint16_t b = rf_.read(0, inst.rs2);
        const auto sa = static_cast<std::int16_t>(a);
        const auto sb = static_cast<std::int16_t>(b);
        bool taken = false;
        switch (inst.op) {
          case isa::Op::beq: taken = a == b; break;
          case isa::Op::bne: taken = a != b; break;
          case isa::Op::blt: taken = sa < sb; break;
          case isa::Op::bge: taken = sa >= sb; break;
          case isa::Op::bltu: taken = a < b; break;
          case isa::Op::bgeu: taken = a >= b; break;
          default: util::panic("unhandled branch");
        }
        if (taken) {
            INC_OBS_COUNT(obs_, branch_taken);
            next_pc = inst.imm;
            ++result.cycles; // taken-branch bubble
        }
        break;
      }

      case isa::OpClass::jump:
        INC_OBS_COUNT(obs_, instr_jump);
        if (inst.op == isa::Op::jmp) {
            next_pc = inst.imm;
        } else if (inst.op == isa::Op::jal) {
            for (int lane = 0; lane < kMaxLanes; ++lane) {
                if (lanes_[static_cast<size_t>(lane)].active)
                    rf_.write(lane, inst.rd,
                              static_cast<std::uint16_t>(pc_ + 1));
            }
            next_pc = inst.imm;
        } else { // jr
            next_pc = rf_.read(0, inst.rs1);
        }
        break;

      case isa::OpClass::incidental:
        INC_OBS_COUNT(obs_, instr_incidental);
        switch (inst.op) {
          case isa::Op::markrp:
            has_resume_ = true;
            resume_pc_ = pc_;
            frame_reg_ = inst.rs1;
            match_mask_ = inst.imm;
            result.mark_resume = true;
            result.resume_frame_value = rf_.read(0, inst.rs1);
            break;
          case isa::Op::acset:
            rf_.orAcMask(inst.imm);
            break;
          case isa::Op::acclr:
            rf_.clearAcMask(inst.imm);
            break;
          case isa::Op::acen:
            ac_en_ = inst.imm != 0;
            break;
          case isa::Op::assem: {
            const std::uint32_t base = rf_.read(0, inst.rs1);
            const std::uint32_t len = rf_.read(0, inst.rs2);
            result.assemble_bytes = mem_->assemble(
                base, len, static_cast<isa::AssembleMode>(inst.imm));
            result.cycles += static_cast<int>(2 * result.assemble_bytes);
            INC_OBS_COUNT(obs_, assembles);
            INC_OBS_ADD(obs_, assemble_bytes, result.assemble_bytes);
            break;
          }
          default:
            util::panic("unhandled incidental op");
        }
        break;
    }

    for (LaneInfo &l : lanes_) {
        if (l.active)
            ++l.instret;
    }
    INC_OBS_ADD(obs_, lane_commits, result.lanes_committed);
    pc_ = next_pc;
    return result;
}

// ---- predecoded fast path --------------------------------------------------
//
// Mirrors stepReference() exactly — same semantics, same RNG draw
// conditions, same observability increments, same memory-model calls in
// the same order — but fetches from the dense DecodedInst array and uses
// the unchecked register-file accessors. Any divergence is a bug caught
// by tests/test_engine_diff.cc and `nvpsim fuzz --engine-diff`.

template <typename ComputeFn>
inline void
Core::dataOpLaneFast(const isa::DecodedInst &d, int lane,
                     ComputeFn compute)
{
    const std::uint16_t a = rf_.readFast(lane, d.rs1);
    const std::uint16_t b =
        d.b_is_imm ? d.imm : rf_.readFast(lane, d.rs2);
    std::uint16_t result = compute(a, b);
    // Identical noise predicate to the reference engine: the RNG must be
    // drawn under exactly the same conditions for bit-identity.
    if (d.noise_candidate && config_.approx_alu && rf_.isAcFast(d.rd)) {
        const int bits = effectiveBits(lane);
        if (bits < 8)
            result = alu_.injectNoise(result, bits);
    }
    rf_.writeFast(lane, d.rd, result);
}

template <typename ComputeFn>
inline void
Core::dataOpFast(const isa::DecodedInst &d, ComputeFn compute)
{
    INC_OBS_COUNT(obs_, instr_alu);
    if (active_lanes_ == 1) {
        dataOpLaneFast(d, 0, compute); // lane 0 is always active
    } else {
        for (int lane = 0; lane < kMaxLanes; ++lane) {
            if (lanes_[static_cast<size_t>(lane)].active)
                dataOpLaneFast(d, lane, compute);
        }
    }
}

template <typename LoadFn>
inline void
Core::loadLaneFast(const isa::DecodedInst &d, int lane, LoadFn load)
{
    const std::uint32_t addr = static_cast<std::uint16_t>(
        rf_.readFast(lane, d.rs1) + d.imm);
    const bool approx = config_.approx_mem && ac_en_;
    const int bits = effectiveBits(lane);
    rf_.writeFast(lane, d.rd, load(lane, addr, bits, approx));
}

template <typename LoadFn>
inline void
Core::loadFast(const isa::DecodedInst &d, LoadFn load)
{
    INC_OBS_COUNT(obs_, instr_load);
    if (active_lanes_ == 1) {
        loadLaneFast(d, 0, load);
    } else {
        for (int lane = 0; lane < kMaxLanes; ++lane) {
            if (lanes_[static_cast<size_t>(lane)].active)
                loadLaneFast(d, lane, load);
        }
    }
}

template <bool kWide>
inline void
Core::storeLaneFast(const isa::DecodedInst &d, int lane,
                    StepResult &result)
{
    const std::uint32_t addr = static_cast<std::uint16_t>(
        rf_.readFast(lane, d.rs1) + d.imm);
    const bool approx = config_.approx_mem && ac_en_;
    const int bits = effectiveBits(lane);
    const std::uint16_t value = rf_.readFast(lane, d.rs2);
    mem_->store8(lane, addr, static_cast<std::uint8_t>(value), bits,
                 approx);
    if constexpr (kWide) {
        mem_->store8(lane, static_cast<std::uint16_t>(addr + 1),
                     static_cast<std::uint8_t>(value >> 8), bits,
                     approx);
    }
    if (lane == 0)
        result.store_policy = mem_->policyAt(addr);
}

template <bool kWide>
inline void
Core::storeFast(const isa::DecodedInst &d, StepResult &result)
{
    INC_OBS_COUNT(obs_, instr_store);
    if (active_lanes_ == 1) {
        storeLaneFast<kWide>(d, 0, result);
    } else {
        for (int lane = 0; lane < kMaxLanes; ++lane) {
            if (lanes_[static_cast<size_t>(lane)].active)
                storeLaneFast<kWide>(d, lane, result);
        }
    }
}

template <typename CmpFn>
inline void
Core::branchFast(const isa::DecodedInst &d, StepResult &result,
                 std::uint16_t &next_pc, CmpFn cmp)
{
    INC_OBS_COUNT(obs_, instr_branch);
    const std::uint16_t a = rf_.readFast(0, d.rs1);
    const std::uint16_t b = rf_.readFast(0, d.rs2);
    if (cmp(a, b)) {
        INC_OBS_COUNT(obs_, branch_taken);
        next_pc = d.imm;
        ++result.cycles; // taken-branch bubble
    }
}

StepResult
Core::stepPredecoded()
{
    StepResult result;
    INC_OBS_COUNT(obs_, steps);
    if (halted_) {
        result.op = isa::Op::halt;
        result.halted = true;
        result.lanes_committed = 0;
        INC_OBS_COUNT(obs_, instr_system);
        return result;
    }

    const isa::DecodedInst &d = decoded_.at(pc_);
    result.op = d.op;
    result.cycles = d.cycles;
    result.lanes_committed = active_lanes_;

    std::uint16_t next_pc = static_cast<std::uint16_t>(pc_ + 1);

    // One jump table on the predecoded opcode: each case inlines its
    // compute/comparator/access into the shared lane-stepping bodies,
    // so the dominant data/load/store steps pay a single indirect
    // branch instead of class dispatch plus a second per-op switch.
    // Semantics per op are an exact twin of ApproxAlu::compute and the
    // stepReference() class handlers — the differential tier
    // (test_engine_diff, fuzz --engine-diff) compares both engines
    // bit-for-bit.
    using U = std::uint16_t;
    using S = std::int16_t;
    switch (d.op) {
      case isa::Op::nop:
        INC_OBS_COUNT(obs_, instr_system);
        break;
      case isa::Op::halt:
        INC_OBS_COUNT(obs_, instr_system);
        halted_ = true;
        result.halted = true;
        break;

      case isa::Op::ldi:
        dataOpFast(d, [](U, U b) { return b; });
        break;
      case isa::Op::mov:
        dataOpFast(d, [](U a, U) { return a; });
        break;
      case isa::Op::add:
      case isa::Op::addi:
        dataOpFast(d, [](U a, U b) { return static_cast<U>(a + b); });
        break;
      case isa::Op::sub:
        dataOpFast(d, [](U a, U b) { return static_cast<U>(a - b); });
        break;
      case isa::Op::mul:
        dataOpFast(d, [](U a, U b) {
            return static_cast<U>(static_cast<std::uint32_t>(a) * b);
        });
        break;
      case isa::Op::divu:
        dataOpFast(d, [](U a, U b) {
            return b == 0 ? static_cast<U>(0xFFFF)
                          : static_cast<U>(a / b);
        });
        break;
      case isa::Op::remu:
        dataOpFast(d, [](U a, U b) {
            return b == 0 ? a : static_cast<U>(a % b);
        });
        break;
      case isa::Op::and_:
      case isa::Op::andi:
        dataOpFast(d, [](U a, U b) { return static_cast<U>(a & b); });
        break;
      case isa::Op::or_:
      case isa::Op::ori:
        dataOpFast(d, [](U a, U b) { return static_cast<U>(a | b); });
        break;
      case isa::Op::xor_:
      case isa::Op::xori:
        dataOpFast(d, [](U a, U b) { return static_cast<U>(a ^ b); });
        break;
      case isa::Op::sll:
      case isa::Op::slli:
        dataOpFast(d, [](U a, U b) {
            return static_cast<U>(a << (b & 15));
        });
        break;
      case isa::Op::srl:
      case isa::Op::srli:
        dataOpFast(d, [](U a, U b) {
            return static_cast<U>(a >> (b & 15));
        });
        break;
      case isa::Op::sra:
      case isa::Op::srai:
        dataOpFast(d, [](U a, U b) {
            return static_cast<U>(static_cast<S>(a) >> (b & 15));
        });
        break;
      case isa::Op::slt:
      case isa::Op::slti:
        dataOpFast(d, [](U a, U b) {
            return static_cast<U>(
                static_cast<S>(a) < static_cast<S>(b) ? 1 : 0);
        });
        break;
      case isa::Op::sltu:
      case isa::Op::sltiu:
        dataOpFast(d, [](U a, U b) {
            return static_cast<U>(a < b ? 1 : 0);
        });
        break;
      case isa::Op::min:
        dataOpFast(d, [](U a, U b) {
            return static_cast<U>(
                std::min(static_cast<S>(a), static_cast<S>(b)));
        });
        break;
      case isa::Op::max:
        dataOpFast(d, [](U a, U b) {
            return static_cast<U>(
                std::max(static_cast<S>(a), static_cast<S>(b)));
        });
        break;
      case isa::Op::minu:
        dataOpFast(d, [](U a, U b) { return std::min(a, b); });
        break;
      case isa::Op::maxu:
        dataOpFast(d, [](U a, U b) { return std::max(a, b); });
        break;

      case isa::Op::ld8:
        loadFast(d, [this](int lane, std::uint32_t addr, int bits,
                           bool approx) -> U {
            return mem_->load8(lane, addr, bits, approx);
        });
        break;
      case isa::Op::ld8s:
        loadFast(d, [this](int lane, std::uint32_t addr, int bits,
                           bool approx) -> U {
            return static_cast<U>(util::signExtend(
                mem_->load8(lane, addr, bits, approx), 8));
        });
        break;
      case isa::Op::ld16:
        loadFast(d, [this](int lane, std::uint32_t addr, int bits,
                           bool approx) -> U {
            const std::uint8_t lo =
                mem_->load8(lane, addr, bits, approx);
            const std::uint8_t hi = mem_->load8(
                lane, static_cast<std::uint16_t>(addr + 1), bits,
                approx);
            return static_cast<U>(lo | (hi << 8));
        });
        break;

      case isa::Op::st8:
        storeFast<false>(d, result);
        break;
      case isa::Op::st16:
        storeFast<true>(d, result);
        break;

      case isa::Op::beq:
        branchFast(d, result, next_pc,
                   [](U a, U b) { return a == b; });
        break;
      case isa::Op::bne:
        branchFast(d, result, next_pc,
                   [](U a, U b) { return a != b; });
        break;
      case isa::Op::blt:
        branchFast(d, result, next_pc, [](U a, U b) {
            return static_cast<S>(a) < static_cast<S>(b);
        });
        break;
      case isa::Op::bge:
        branchFast(d, result, next_pc, [](U a, U b) {
            return static_cast<S>(a) >= static_cast<S>(b);
        });
        break;
      case isa::Op::bltu:
        branchFast(d, result, next_pc,
                   [](U a, U b) { return a < b; });
        break;
      case isa::Op::bgeu:
        branchFast(d, result, next_pc,
                   [](U a, U b) { return a >= b; });
        break;

      case isa::Op::jmp:
        INC_OBS_COUNT(obs_, instr_jump);
        next_pc = d.imm;
        break;
      case isa::Op::jal:
        INC_OBS_COUNT(obs_, instr_jump);
        for (int lane = 0; lane < kMaxLanes; ++lane) {
            if (lanes_[static_cast<size_t>(lane)].active)
                rf_.writeFast(lane, d.rd,
                              static_cast<std::uint16_t>(pc_ + 1));
        }
        next_pc = d.imm;
        break;
      case isa::Op::jr:
        INC_OBS_COUNT(obs_, instr_jump);
        next_pc = rf_.readFast(0, d.rs1);
        break;

      case isa::Op::markrp:
        INC_OBS_COUNT(obs_, instr_incidental);
        has_resume_ = true;
        resume_pc_ = pc_;
        frame_reg_ = d.rs1;
        match_mask_ = d.imm;
        result.mark_resume = true;
        result.resume_frame_value = rf_.readFast(0, d.rs1);
        break;
      case isa::Op::acset:
        INC_OBS_COUNT(obs_, instr_incidental);
        rf_.orAcMask(d.imm);
        break;
      case isa::Op::acclr:
        INC_OBS_COUNT(obs_, instr_incidental);
        rf_.clearAcMask(d.imm);
        break;
      case isa::Op::acen:
        INC_OBS_COUNT(obs_, instr_incidental);
        ac_en_ = d.imm != 0;
        break;
      case isa::Op::assem: {
        INC_OBS_COUNT(obs_, instr_incidental);
        const std::uint32_t base = rf_.readFast(0, d.rs1);
        const std::uint32_t len = rf_.readFast(0, d.rs2);
        result.assemble_bytes = mem_->assemble(
            base, len, static_cast<isa::AssembleMode>(d.imm));
        result.cycles += static_cast<int>(2 * result.assemble_bytes);
        INC_OBS_COUNT(obs_, assembles);
        INC_OBS_ADD(obs_, assemble_bytes, result.assemble_bytes);
        break;
      }

      case isa::Op::num_ops:
        util::panic("stepPredecoded: invalid opcode");
    }

    if (active_lanes_ == 1) {
        ++lanes_[0].instret;
    } else {
        for (LaneInfo &l : lanes_) {
            if (l.active)
                ++l.instret;
        }
    }
    INC_OBS_ADD(obs_, lane_commits, result.lanes_committed);
    pc_ = next_pc;
    return result;
}

} // namespace inc::nvp
