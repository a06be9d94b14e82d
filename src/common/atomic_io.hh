/**
 * @file
 * Crash-atomic file output and the I/O fault-injection harness.
 *
 * writeFileAtomic() implements the write-temp + fsync + rename (+
 * directory fsync) protocol: readers never observe a half-written
 * artifact -- they see the old file (or none) or the complete new
 * one. All emitted artifacts (CSV/JSON emit, the Perfetto timeline,
 * checkpoints, journal headers) go through it;
 * only deliberately append-only streams (the stats JSONL stream, the
 * sweep journal's record appends) write in place, each record being
 * individually CRC-framed or line-framed.
 *
 * IoFaultInjector is a process-wide test harness: configured from the
 * AMSC_IO_FAULTS environment variable (or programmatically), it makes
 * the Nth write fail, short-write, report ENOSPC, or kills the
 * process right after the Nth atomic rename -- so the crash-safety
 * tests can prove the artifacts stay consistent under every failure
 * mode (docs/robustness.md). Spec grammar, comma-separated:
 *
 *   fail_write=N        Nth checked write throws IoError
 *   short_write=N       Nth checked write persists a prefix, throws
 *   enospc=N            Nth checked write throws IoError(ENOSPC)
 *   kill_after_rename=N _Exit(137) right after the Nth rename
 *
 * Counters are 1-based and process-wide; 0 or absent disables a mode.
 */

#ifndef AMSC_COMMON_ATOMIC_IO_HH
#define AMSC_COMMON_ATOMIC_IO_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace amsc
{

/** Process-wide injectable I/O fault schedule (tests only). */
class IoFaultInjector
{
  public:
    /** The process-wide instance, seeded from AMSC_IO_FAULTS. */
    static IoFaultInjector &instance();

    /** (Re)configure from a spec string; "" disables everything. */
    void configure(const std::string &spec);

    /** True when any fault mode is armed. */
    bool
    armed() const
    {
        return failWriteAt_ != 0 || shortWriteAt_ != 0 ||
            enospcAt_ != 0 || killAfterRenameAt_ != 0;
    }

    /**
     * Account one checked write of @p n bytes to @p path.
     *
     * @return the byte count actually allowed (n, or a truncated
     *         count for an injected short write). Throws IoError for
     *         an injected hard failure; for a short write the caller
     *         persists the returned prefix first, then calls
     *         failShortWrite().
     */
    std::size_t onWrite(const std::string &path, std::size_t n);

    /** Throw the IoError of a short write admitted by onWrite(). */
    [[noreturn]] void failShortWrite(const std::string &path);

    /** Account one completed atomic rename (may _Exit(137)). */
    void onRename(const std::string &path);

  private:
    IoFaultInjector();

    std::atomic<std::uint64_t> writeCount_{0};
    std::atomic<std::uint64_t> renameCount_{0};
    std::uint64_t failWriteAt_ = 0;
    std::uint64_t shortWriteAt_ = 0;
    std::uint64_t enospcAt_ = 0;
    std::uint64_t killAfterRenameAt_ = 0;
};

/**
 * Atomically replace @p path with @p content.
 *
 * Writes `<path>.tmp.<pid>`, fsyncs it, renames over @p path and
 * fsyncs the parent directory. Throws IoError on any failure; the
 * destination is never left half-written.
 */
void writeFileAtomic(const std::string &path,
                     const std::string &content);

/**
 * rename(2) @p from over @p to, fsync the parent directory and
 * notify the fault injector. Throws IoError on failure. Publication
 * step for sinks that stream into a temp file (the Perfetto
 * timeline): the destination appears complete or not at all.
 */
void renameFileDurable(const std::string &from,
                       const std::string &to);

/**
 * Append @p content to @p path (O_APPEND) and fsync.
 *
 * The journal's record framing makes a torn tail detectable; this
 * helper guarantees the bytes of *prior* records are durable before
 * returning. Throws IoError on failure.
 */
void appendFileDurable(const std::string &path,
                       const std::string &content);

/**
 * Write @p content to @p chunk-checked ostream @p os standing for
 * @p path: consults the fault injector, writes, and verifies the
 * stream state so a short write surfaces as IoError instead of
 * silent truncation.
 */
void checkedStreamWrite(std::ostream &os, const std::string &content,
                        const std::string &path);

} // namespace amsc

#endif // AMSC_COMMON_ATOMIC_IO_HH
