/**
 * @file
 * Structural parameters shared by all NoC topologies.
 */

#ifndef AMSC_NOC_NOC_PARAMS_HH
#define AMSC_NOC_NOC_PARAMS_HH

#include <cstdint>

#include "common/types.hh"
#include "noc/message.hh"
#include "noc/network.hh"

namespace amsc
{

/** Parameters for constructing a GPU NoC. */
struct NocParams
{
    NocTopology topology = NocTopology::Hierarchical;
    /** Number of SMs (Table 1: 80). */
    std::uint32_t numSms = 80;
    /** SM clusters == SM-routers == LLC slices per MC (co-design). */
    std::uint32_t numClusters = 8;
    /** Memory controllers == MC-routers. */
    std::uint32_t numMcs = 8;
    /** LLC slices per memory controller. */
    std::uint32_t slicesPerMc = 8;
    /** Channel width in bytes (Table 1: 32). */
    std::uint32_t channelWidthBytes = 32;
    /** Concentration factor (C-Xbar only). */
    std::uint32_t concentration = 2;
    /** Input buffer depth in flits per VC (Table 1: 8). */
    std::uint32_t vcDepthFlits = 8;
    /** Router pipeline: cycles before SA eligibility (4-stage: 3). */
    std::uint32_t routerPipelineLatency = 3;
    /** Short local link latency (SM<->SM-router, slice<->MC-router). */
    Cycle shortLinkLatency = 1;
    /** Long global link latency (inter-router / monolithic xbars). */
    Cycle longLinkLatency = 4;
    /** Credit return latency. */
    Cycle creditLatency = 1;
    /** Short link length, mm (power model). */
    double shortLinkMm = 1.5;
    /** Long link length, mm (paper: 12.3, half the Pascal die). */
    double longLinkMm = 12.3;
    /** Injection queue capacity (messages). */
    std::size_t injectQueueCap = 16;
    /** Ejection queue capacity (messages, the LLC front queue). */
    std::size_t ejectQueueCap = 16;
    /** Ideal-network fixed latency (validation topology). */
    Cycle idealLatency = 10;
    /** Packet sizing. */
    PacketFormat packet{};

    /** Total LLC slices. */
    std::uint32_t numSlices() const { return numMcs * slicesPerMc; }

    /** SMs per cluster (cluster-major SM numbering). */
    std::uint32_t
    smsPerCluster() const
    {
        return (numSms + numClusters - 1) / numClusters;
    }

    /** Cluster of SM @p sm. */
    ClusterId
    clusterOf(SmId sm) const
    {
        return sm / smsPerCluster();
    }
};

} // namespace amsc

#endif // AMSC_NOC_NOC_PARAMS_HH
