#include "mem/memsys.hh"

#include "mem/image.hh"
#include "support/logging.hh"
#include "support/stats_registry.hh"
#include "support/trace.hh"

namespace apir {

void
validateMemConfig(const MemConfig &cfg)
{
    auto require = [](bool ok, const char *what) {
        if (!ok)
            fatal("invalid MemConfig: ", what);
    };
    require(cfg.clockHz > 0.0, "mem.clockHz must be positive (it "
            "converts per-cycle QPI bandwidth to GB/s)");
    require(cfg.bandwidthScale > 0.0,
            "mem.bandwidthScale must be positive");
    require(cfg.qpi.bytesPerCycle > 0.0,
            "qpi.bytesPerCycle must be positive");
    require(cfg.cache.lineBytes >= kWordBytes,
            "cache.lineBytes must be at least the 8-byte word size");
    require(cfg.cache.sizeBytes >= cfg.cache.lineBytes &&
                cfg.cache.sizeBytes % cfg.cache.lineBytes == 0,
            "cache.sizeBytes must be a non-zero multiple of "
            "cache.lineBytes");
    require(cfg.cache.mshrs >= 1, "cache.mshrs must be >= 1 (the "
            "cache needs at least one outstanding miss)");
}

MemorySystem::MemorySystem(MemConfig cfg) : cfg_(cfg)
{
    validateMemConfig(cfg);
    QpiConfig q = cfg.qpi;
    q.bytesPerCycle *= cfg.bandwidthScale;
    qpi_ = std::make_unique<QpiChannel>(q);
    cache_ = std::make_unique<Cache>(cfg.cache, *qpi_);
}

double
MemorySystem::effectiveBandwidthGBs() const
{
    return qpi_->config().bytesPerCycle * cfg_.clockHz / 1e9;
}

void
MemorySystem::registerStats(StatRegistry &reg,
                            const std::string &component) const
{
    reg.addCounter(component, "reads", reads_);
    reg.addCounter(component, "writes", writes_);
    cache_->registerStats(reg, component);
    qpi_->registerStats(reg, component);
}

void
MemorySystem::attachTracer(ChromeTracer *tracer)
{
    qpi_->attachTracer(tracer);
}

} // namespace apir
