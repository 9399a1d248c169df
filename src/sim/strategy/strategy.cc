#include "sim/strategy/strategy.h"

#include <cstring>

#include "nvp/memory.h"
#include "obs/metrics.h"
#include "obs/schema.h"
#include "sim/strategy/image_store.h"
#include "util/bit_ops.h"
#include "util/logging.h"

namespace inc::sim
{

const std::array<StrategyKind, kNumStrategies> &
allStrategies()
{
    static const std::array<StrategyKind, kNumStrategies> kAll = {
        StrategyKind::active,
        StrategyKind::freezer,
        StrategyKind::ondemand,
    };
    return kAll;
}

const char *
strategyName(StrategyKind kind)
{
    switch (kind) {
      case StrategyKind::active:
        return "active";
      case StrategyKind::freezer:
        return "freezer";
      case StrategyKind::ondemand:
        return "ondemand";
    }
    util::panic("strategyName: bad kind %d", static_cast<int>(kind));
}

std::string
strategyNames()
{
    std::string names;
    for (StrategyKind kind : allStrategies()) {
        if (!names.empty())
            names += ",";
        names += strategyName(kind);
    }
    return names;
}

std::optional<StrategyKind>
strategyFromName(const std::string &name)
{
    for (StrategyKind kind : allStrategies()) {
        if (name == strategyName(kind))
            return kind;
    }
    return std::nullopt;
}

CheckpointStrategy::CheckpointStrategy(const StrategyConfig &config,
                                       nvp::DataMemory *mem)
    : config_(config), mem_(mem)
{
    if (!mem_)
        util::fatal("CheckpointStrategy requires a data memory");
    image_ = std::make_unique<ImageStore>(config_.persistence,
                                          config_.name_prefix,
                                          mem_->size(),
                                          ImageStore::kMetaBytesCrc);
    seq_ = image_->bootSeq();
}

CheckpointStrategy::~CheckpointStrategy() = default;

void
CheckpointStrategy::onSample(std::size_t, double)
{
}

void
CheckpointStrategy::onRestore(std::size_t)
{
    ++stats_.restores;
    if (image_->hasCommitted()) {
        const auto bytes =
            static_cast<std::uint64_t>(image_->stateBytes());
        stats_.restore_bytes += bytes;
        stats_.restore_latency_us +=
            static_cast<double>(bytes) * config_.restore_us_per_byte;
    }
}

void
CheckpointStrategy::onColdBoot(std::size_t)
{
}

bool
CheckpointStrategy::verifyImage(std::string *why) const
{
    return image_->verifyCommitted(why);
}

void
CheckpointStrategy::commitFullImage()
{
    const std::size_t bytes = mem_->size();
    image_->writeSpan(0, mem_->mainData(), bytes);
    image_->commit(++seq_);
    const std::uint64_t words =
        bytes / nvp::DataMemory::kDirtyWordBytes;
    stats_.backup_bytes += bytes;
    stats_.words_written += words;
    stats_.words_tracked += words;
    stats_.backup_energy_nj +=
        static_cast<double>(bytes) * config_.backup_nj_per_byte;
}

void
CheckpointStrategy::publish(obs::MetricsRegistry &m) const
{
    const auto count = [&m](const char *name, std::uint64_t v) {
        m.counter(name).value += v;
    };
    count(obs::kCkptBackups, stats_.backups);
    count(obs::kCkptSnapshots, stats_.snapshots);
    count(obs::kCkptBackupBytes, stats_.backup_bytes);
    count(obs::kCkptRestores, stats_.restores);
    count(obs::kCkptRestoreBytes, stats_.restore_bytes);
    count(obs::kCkptWordsWritten, stats_.words_written);
    count(obs::kCkptWordsTracked, stats_.words_tracked);
    m.gauge(obs::kCkptBackupEnergy).value += stats_.backup_energy_nj;
    m.gauge(obs::kCkptRestoreLatency).value += stats_.restore_latency_us;
    m.counter(std::string(obs::kCkptStrategyPrefix) +
              strategyName(config_.kind))
        .value += 1;
}

namespace
{

/** The full-image baseline: every backup persists the whole memory. */
class ActiveStrategy final : public CheckpointStrategy
{
  public:
    ActiveStrategy(const StrategyConfig &config, nvp::DataMemory *mem)
        : CheckpointStrategy(config, mem)
    {
    }

    void onBackup(std::size_t) override
    {
        ++stats_.backups;
        commitFullImage();
    }
};

/**
 * Freezer-style dirty-word backup (arXiv 2101.09968).
 *
 * The store intercepts in nvp::DataMemory mark 4-byte words written
 * since the last clearDirty(). Because the image is double-buffered,
 * each slot needs its OWN notion of staleness: a word synced into slot
 * A at backup N is still stale in slot B at backup N+1. pending_[s]
 * accumulates words slot s has not absorbed yet; a backup folds the
 * memory's bitmap into BOTH pendings, clears it, then flushes the
 * inactive slot's pending set. Both pendings start all-ones so a warm
 * restart (or a fresh store over pre-initialized memory) conservatively
 * resyncs every word before trusting incremental deltas.
 */
class FreezerStrategy final : public CheckpointStrategy
{
  public:
    FreezerStrategy(const StrategyConfig &config, nvp::DataMemory *mem)
        : CheckpointStrategy(config, mem)
    {
        mem_->enableDirtyTracking();
        mem_->clearDirty();
        const std::size_t words = mem_->dirtyBits().size();
        pending_[0].assign(words, ~std::uint64_t{0});
        pending_[1].assign(words, ~std::uint64_t{0});
    }

    void onBackup(std::size_t) override
    {
        ++stats_.backups;
        const std::vector<std::uint64_t> &dirty = mem_->dirtyBits();
        for (std::size_t i = 0; i < dirty.size(); ++i) {
            pending_[0][i] |= dirty[i];
            pending_[1][i] |= dirty[i];
        }
        mem_->clearDirty();

        const std::size_t slot = image_->inactiveIndex();
        std::vector<std::uint64_t> &pend = pending_[slot];
        const std::uint8_t *mem_bytes = mem_->mainData();
        const std::size_t bytes = mem_->size();
        const std::size_t total_words =
            bytes / nvp::DataMemory::kDirtyWordBytes;
        std::uint64_t written = 0;
        for (std::size_t i = 0; i < pend.size(); ++i) {
            std::uint64_t bits = pend[i];
            while (bits) {
                const int b = __builtin_ctzll(bits);
                bits &= bits - 1;
                const std::size_t w = i * 64 + static_cast<std::size_t>(b);
                if (w >= total_words)
                    break;
                const std::size_t off =
                    w * nvp::DataMemory::kDirtyWordBytes;
                image_->writeSpan(off, mem_bytes + off,
                                  nvp::DataMemory::kDirtyWordBytes);
                ++written;
            }
            pend[i] = 0;
        }
        image_->commit(++seq_);
        const std::uint64_t copied =
            written * nvp::DataMemory::kDirtyWordBytes;
        stats_.backup_bytes += copied;
        stats_.words_written += written;
        stats_.words_tracked += total_words;
        stats_.backup_energy_nj +=
            static_cast<double>(copied) * config_.backup_nj_per_byte;
    }

  private:
    std::array<std::vector<std::uint64_t>, 2> pending_;
};

/**
 * Rapid-Recovery-style placement (arXiv 2209.08826): full snapshots at
 * the in-situ backup plus whenever the stored-energy fraction crosses a
 * configured watermark downward, keeping the committed image fresher at
 * the cost of extra snapshot writes. The previous-fraction tracker is
 * reset across restores/cold boots so the charging ramp after an outage
 * never reads as a downward crossing.
 */
class OndemandStrategy final : public CheckpointStrategy
{
  public:
    OndemandStrategy(const StrategyConfig &config, nvp::DataMemory *mem)
        : CheckpointStrategy(config, mem)
    {
    }

    void onBackup(std::size_t) override
    {
        ++stats_.backups;
        commitFullImage();
        have_prev_ = false;
    }

    void onSample(std::size_t, double stored_fraction) override
    {
        if (have_prev_) {
            for (double mark : config_.watermarks) {
                if (prev_fraction_ >= mark && stored_fraction < mark) {
                    ++stats_.snapshots;
                    commitFullImage();
                    break;
                }
            }
        }
        prev_fraction_ = stored_fraction;
        have_prev_ = true;
    }

    void onRestore(std::size_t sample) override
    {
        CheckpointStrategy::onRestore(sample);
        have_prev_ = false;
    }

    void onColdBoot(std::size_t) override { have_prev_ = false; }

  private:
    double prev_fraction_ = 0.0;
    bool have_prev_ = false;
};

} // namespace

std::unique_ptr<CheckpointStrategy>
makeStrategy(const StrategyConfig &config, nvp::DataMemory *mem)
{
    switch (config.kind) {
      case StrategyKind::active:
        return std::make_unique<ActiveStrategy>(config, mem);
      case StrategyKind::freezer:
        return std::make_unique<FreezerStrategy>(config, mem);
      case StrategyKind::ondemand:
        return std::make_unique<OndemandStrategy>(config, mem);
    }
    util::panic("makeStrategy: bad kind %d",
                static_cast<int>(config.kind));
}

} // namespace inc::sim
