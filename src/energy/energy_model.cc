#include "energy/energy_model.h"

#include <algorithm>

#include "util/logging.h"

namespace inc::energy
{

EnergyModel::EnergyModel(EnergyParams params, nvm::SttModel stt)
    : params_(params), table_(stt)
{
    if (params_.cycle_energy_nj <= 0 || params_.base_fraction <= 0 ||
        params_.base_fraction >= 1) {
        util::fatal("EnergyParams: cycle energy and base fraction invalid");
    }
    base_nj_ = params_.cycle_energy_nj * params_.base_fraction;
    datapath_nj_ = params_.cycle_energy_nj * (1.0 - params_.base_fraction);
}

double
EnergyModel::instructionEnergyNj(isa::Op op, int main_bits,
                                 int lane_bits_sum,
                                 nvm::RetentionPolicy store_policy) const
{
    if (main_bits < 1 || main_bits > 8)
        util::panic("instructionEnergyNj: main_bits out of range %d",
                    main_bits);

    const isa::OpClass cls = isa::opClass(op);
    double dp_factor = 1.0;
    if (cls == isa::OpClass::mul)
        dp_factor = params_.mul_factor;
    else if (cls == isa::OpClass::div)
        dp_factor = params_.div_factor;

    // Per-cycle energy: shared base + width-scaled datapath per lane.
    const double width_scale =
        (static_cast<double>(main_bits) +
         params_.lane_share * static_cast<double>(lane_bits_sum)) / 8.0;
    const double per_cycle = base_nj_ + datapath_nj_ * dp_factor *
                                            width_scale;
    double energy = per_cycle * isa::opCycles(op);

    // NVM access adders. Store energy is discounted by the retention
    // policy's write-energy saving (approximate backup writes cost less).
    if (cls == isa::OpClass::load) {
        energy += params_.load_extra_nj;
    } else if (cls == isa::OpClass::store) {
        const double saving = table_.wordSaving(store_policy);
        energy += params_.store_extra_nj * (1.0 - saving);
    }
    return energy;
}

double
EnergyModel::maxInstructionEnergyNj(int max_lanes) const
{
    if (max_lanes < 1)
        util::panic("maxInstructionEnergyNj: max_lanes out of range %d",
                    max_lanes);
    const nvm::RetentionPolicy policies[] = {
        nvm::RetentionPolicy::full, nvm::RetentionPolicy::linear,
        nvm::RetentionPolicy::log, nvm::RetentionPolicy::parabola};
    double max_nj = 0.0;
    for (int op = 0; op < static_cast<int>(isa::Op::num_ops); ++op) {
        for (const int bits : {1, 8}) {
            for (const int lanes : {1, max_lanes}) {
                for (const auto policy : policies) {
                    max_nj = std::max(
                        max_nj, instructionEnergyNj(
                                    static_cast<isa::Op>(op), bits,
                                    (lanes - 1) * 8, policy));
                }
            }
        }
    }
    return max_nj;
}

double
EnergyModel::instructionBaseEnergyNj(isa::Op op) const
{
    return base_nj_ * isa::opCycles(op);
}

double
EnergyModel::idleCycleEnergyNj() const
{
    // Clock-gated core: base only, halved.
    return 0.5 * base_nj_;
}

double
EnergyModel::backupEnergyNj(nvm::RetentionPolicy policy, int versions) const
{
    if (versions < 1 || versions > 4)
        util::panic("backupEnergyNj: versions out of range %d", versions);
    const double fj_to_nj = 1e-6 * params_.backup_peripheral_factor;
    const double full_bit_fj =
        table_.bitEnergyFj(nvm::RetentionPolicy::full, 8);
    const double control_fj =
        static_cast<double>(params_.control_state_bits) * full_bit_fj;
    // Data words: data_bits_per_version / 8 words, each written with the
    // shaped per-bit energies.
    const double words_per_version =
        static_cast<double>(params_.data_bits_per_version) / 8.0;
    const double data_fj = static_cast<double>(versions) *
                           words_per_version *
                           table_.wordEnergyFj(policy);
    return (control_fj + data_fj) * fj_to_nj;
}

double
EnergyModel::restoreEnergyNj(int versions) const
{
    return params_.restore_fraction *
           backupEnergyNj(nvm::RetentionPolicy::full, versions);
}

double
EnergyModel::assembleEnergyNj(int bytes) const
{
    // Two cycles per byte through the merge state machine.
    return static_cast<double>(bytes) * 2.0 *
           (base_nj_ + datapath_nj_ * 0.5);
}

} // namespace inc::energy
