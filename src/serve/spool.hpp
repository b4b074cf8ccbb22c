// Crash-safe job journaling for lily_serve.
//
// Every accepted job is journaled to one record file under the spool
// directory and re-journaled on each lifecycle transition (queued ->
// running -> terminal). Records are written atomically — temp file,
// write_full, fsync, rename, directory fsync — and carry a CRC-32 trailer,
// so a server killed mid-write leaves either the old record or the new one,
// never a torn file. On restart the server scans the spool: queued and
// running records are re-admitted (a `running` record means the server died
// mid-job — the job is retried, not lost), terminal records keep serving
// their outcome to Wait requests.
//
// Record layout (WireWriter encoding, little-endian):
//   u32 magic 'LSPL' | u32 version | u64 id | u8 state | u32 retries |
//   u8 tier | JobSpec | u8 has_outcome [ JobOutcome ] | u32 crc(all prior)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "flow/job.hpp"
#include "util/status.hpp"

namespace lily {

inline constexpr std::uint32_t kSpoolMagic = 0x4C53504Cu;  // "LSPL"
// v2: records embed the v2 JobOutcome (cache probes + worker job seq).
// v3: records embed the v3 JobOutcome (per-stage wall times).
// v4: records embed the v4 JobSpec (no threads) and JobOutcome (no cache
// probes, version-stamped).
inline constexpr std::uint32_t kSpoolVersion = 4;

struct SpoolEntry {
    std::uint64_t id = 0;
    JobState state = JobState::Queued;
    std::uint32_t retries = 0;
    JobTier tier = JobTier::Full;
    JobSpec spec;
    std::optional<JobOutcome> outcome;  // required once state is terminal
};

/// Serialize / parse one record (the file body, CRC included).
std::string encode_spool_entry(const SpoolEntry& entry);
StatusOr<SpoolEntry> decode_spool_entry(std::string_view bytes);

/// Parse the id out of a record file name "job-<id>.spool"; false for any
/// other name.
bool parse_spool_record_name(std::string_view name, std::uint64_t& id);

/// What Spool::scan found.
struct SpoolScan {
    std::vector<SpoolEntry> entries;    // decoded records, sorted by id
    std::vector<std::string> skipped;   // "<file>: <reason>" per undecodable record
    std::uint64_t max_record_id = 0;    // largest id named or decoded, skipped too
};

class Spool {
public:
    explicit Spool(std::string dir) : dir_(std::move(dir)) {}

    const std::string& dir() const { return dir_; }

    /// Create the directory (mkdir -p semantics for one level).
    Status ensure_dir() const;

    /// Atomically (re)write the record for `entry.id`.
    Status write(const SpoolEntry& entry) const;

    /// Read one record by id (Unsupported when absent).
    StatusOr<SpoolEntry> read(std::uint64_t id) const;

    /// Remove a record (Ok even when already gone).
    Status remove(std::uint64_t id) const;

    /// Parse every record in the directory. Unreadable or corrupt records
    /// are *skipped* here (the server must come up even with a damaged
    /// spool) but still count toward max_record_id, so no new job reuses
    /// their ids; check_spool reports them loudly.
    StatusOr<SpoolScan> scan() const;

    std::string path_for(std::uint64_t id) const;

private:
    std::string dir_;
};

}  // namespace lily
