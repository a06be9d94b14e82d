#include "trace/trace_writer.hh"

#include <cstring>

#include "common/error.hh"
#include "common/log.hh"
#include "sim/gpu_system.hh"
#include "trace/trace_format.hh"

namespace amsc
{

TraceRunSummary
summarizeRun(const RunResult &r)
{
    TraceRunSummary s;
    s.valid = true;
    s.cycles = r.cycles;
    s.instructions = r.instructions;
    s.llcAccesses = r.llcAccesses;
    s.dramAccesses = r.dramAccesses;
    s.llcReadMissRate = r.llcReadMissRate;
    s.ipc = r.ipc;
    return s;
}

namespace
{

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putDoubleBits(std::vector<std::uint8_t> &out, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(out, bits);
}

} // namespace

TraceWriter::TraceWriter(const std::string &path) : path_(path)
{
    out_.open(path, std::ios::binary | std::ios::trunc);
    if (!out_)
        throw IoError(path, "cannot open trace for writing");

    // Header with a zero index offset; patched by finalize(). A
    // reader seeing offset 0 knows the recording was cut short.
    std::vector<std::uint8_t> hdr;
    hdr.insert(hdr.end(), kTraceMagic, kTraceMagic + 8);
    putU32(hdr, kTraceVersion);
    putU32(hdr, kTraceHeaderBytes);
    putU64(hdr, 0); // index offset
    putU64(hdr, 0); // reserved
    writeRaw(hdr.data(), hdr.size());
}

TraceWriter::~TraceWriter()
{
    if (!finalized_)
        finalize();
}

std::uint32_t
TraceWriter::beginKernel(const std::string &name,
                         std::uint32_t num_ctas,
                         std::uint32_t warps_per_cta)
{
    if (finalized_)
        panic("trace: beginKernel on finalized writer");
    KernelEntry k;
    k.name = name;
    k.numCtas = num_ctas;
    k.warpsPerCta = warps_per_cta;
    kernels_.push_back(std::move(k));
    return static_cast<std::uint32_t>(kernels_.size() - 1);
}

void
TraceWriter::writeWarpBlock(std::uint32_t kernel, CtaId cta,
                            std::uint32_t warp,
                            std::uint64_t num_instrs,
                            const std::vector<std::uint8_t> &payload)
{
    if (finalized_)
        panic("trace: writeWarpBlock on finalized writer");
    if (kernel >= kernels_.size())
        panic("trace: warp block for unregistered kernel %u", kernel);

    // Self-describing block framing ahead of the payload, so a
    // sequential scan can recover streams even without the index.
    std::vector<std::uint8_t> frame;
    putVarint(frame, kernel);
    putVarint(frame, cta);
    putVarint(frame, warp);
    putVarint(frame, num_instrs);
    putVarint(frame, payload.size());
    writeRaw(frame.data(), frame.size());

    WarpEntry e;
    e.cta = cta;
    e.warp = warp;
    e.offset = offset_; // payload position, after the framing
    e.numInstrs = num_instrs;
    e.payloadBytes = payload.size();
    kernels_[kernel].warps.push_back(e);

    writeRaw(payload.data(), payload.size());
}

void
TraceWriter::setRunSummary(const TraceRunSummary &summary)
{
    summary_ = summary;
}

void
TraceWriter::finalize()
{
    if (finalized_)
        return;
    finalized_ = true;

    const std::uint64_t index_offset = offset_;
    std::vector<std::uint8_t> idx;
    putVarint(idx, kernels_.size());
    for (const KernelEntry &k : kernels_) {
        putVarint(idx, k.name.size());
        idx.insert(idx.end(), k.name.begin(), k.name.end());
        putVarint(idx, k.numCtas);
        putVarint(idx, k.warpsPerCta);
        putVarint(idx, k.warps.size());
        for (const WarpEntry &w : k.warps) {
            putVarint(idx, w.cta);
            putVarint(idx, w.warp);
            putVarint(idx, w.offset);
            putVarint(idx, w.numInstrs);
            putVarint(idx, w.payloadBytes);
        }
    }
    idx.push_back(summary_.valid ? 1 : 0);
    putVarint(idx, summary_.cycles);
    putVarint(idx, summary_.instructions);
    putVarint(idx, summary_.llcAccesses);
    putVarint(idx, summary_.dramAccesses);
    putDoubleBits(idx, summary_.llcReadMissRate);
    putDoubleBits(idx, summary_.ipc);
    idx.insert(idx.end(), kTraceEndMagic, kTraceEndMagic + 8);
    writeRaw(idx.data(), idx.size());

    // Patch the header's index offset.
    out_.seekp(16);
    std::vector<std::uint8_t> patch;
    putU64(patch, index_offset);
    out_.write(reinterpret_cast<const char *>(patch.data()),
               static_cast<std::streamsize>(patch.size()));
    out_.close();
    if (!out_)
        throw IoError(path_, "error finalizing trace");
}

void
TraceWriter::writeRaw(const void *data, std::size_t n)
{
    out_.write(static_cast<const char *>(data),
               static_cast<std::streamsize>(n));
    if (!out_)
        throw IoError(path_, "trace write error");
    offset_ += n;
}

} // namespace amsc
