#include "core/machine_config.hh"

#include "common/logging.hh"

namespace csim {

MachineConfig
MachineConfig::monolithic()
{
    return MachineConfig{};
}

MachineConfig
MachineConfig::clustered(unsigned n)
{
    CSIM_ASSERT(n >= 1 && n <= 8 && 8 % n == 0);
    MachineConfig cfg;
    cfg.numClusters = n;
    cfg.cluster.issueWidth = 8 / n;
    cfg.cluster.intPorts = 8 / n;
    cfg.cluster.fpPorts = (4 + n - 1) / n;   // round up partial ports
    cfg.cluster.memPorts = (4 + n - 1) / n;
    cfg.windowPerCluster = 128 / n;
    return cfg;
}

MachineConfig
MachineConfig::generic(unsigned n, unsigned width)
{
    CSIM_ASSERT(n >= 1 && width >= 1);
    MachineConfig cfg;
    cfg.numClusters = n;
    cfg.cluster.issueWidth = width;
    cfg.cluster.intPorts = width;
    cfg.cluster.fpPorts = (width + 1) / 2;
    cfg.cluster.memPorts = (width + 1) / 2;
    cfg.windowPerCluster = (128 + n - 1) / n;
    return cfg;
}

std::string
MachineConfig::name() const
{
    return std::to_string(numClusters) + "x" +
        std::to_string(cluster.issueWidth) + "w";
}

std::string
MachineConfig::validationError() const
{
    if (numClusters < 1)
        return "numClusters must be >= 1";
    if (numClusters > maxClusters)
        return "numClusters " + std::to_string(numClusters) +
            " exceeds the supported maximum of " +
            std::to_string(maxClusters) +
            " (per-cluster delivery masks are 16 bits wide)";
    if (cluster.issueWidth < 1)
        return "cluster issueWidth must be >= 1";
    if (cluster.intPorts < 1 || cluster.fpPorts < 1 ||
        cluster.memPorts < 1)
        return "every cluster needs >= 1 port of each class (a "
               "portless class deadlocks in-order steering)";
    if (windowPerCluster < 1)
        return "windowPerCluster must be >= 1";
    if (robEntries < 1)
        return "robEntries must be >= 1";
    if (fetchWidth < 1 || dispatchWidth < 1 || commitWidth < 1)
        return "fetch/dispatch/commit widths must be >= 1";
    if (fwdLatency > maxFwdLatency)
        return "fwdLatency " + std::to_string(fwdLatency) +
            " exceeds the supported maximum of " +
            std::to_string(maxFwdLatency);
    return "";
}

void
MachineConfig::validate() const
{
    const std::string err = validationError();
    if (!err.empty())
        CSIM_FATAL_F("invalid machine config %s: %s", name().c_str(),
                     err.c_str());
}

} // namespace csim
