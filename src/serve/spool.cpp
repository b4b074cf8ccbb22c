#include "serve/spool.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "serve/protocol.hpp"
#include "util/crc.hpp"
#include "util/io.hpp"

namespace lily {

namespace {

Status errno_status(const std::string& what) {
    return Status(StatusCode::Internal, what + ": " + std::strerror(errno));
}

/// fsync a directory so a rename inside it is durable.
void fsync_dir(const std::string& dir) {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

StatusOr<std::string> read_file_bytes(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        if (errno == ENOENT) return Status(StatusCode::Unsupported, "no record: " + path);
        return errno_status("open " + path);
    }
    std::string out;
    char chunk[8192];
    for (;;) {
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n > 0) {
            out.append(chunk, static_cast<std::size_t>(n));
            continue;
        }
        if (n == 0) break;
        if (errno == EINTR) continue;
        const Status err = errno_status("read " + path);
        ::close(fd);
        return err;
    }
    ::close(fd);
    return out;
}

}  // namespace

std::string encode_spool_entry(const SpoolEntry& entry) {
    WireWriter w;
    w.u32(kSpoolMagic);
    w.u32(kSpoolVersion);
    w.u64(entry.id);
    w.u8(static_cast<std::uint8_t>(entry.state));
    w.u32(entry.retries);
    w.u8(static_cast<std::uint8_t>(entry.tier));
    w.str(encode_job_spec(entry.spec));
    w.u8(entry.outcome.has_value() ? 1 : 0);
    if (entry.outcome.has_value()) w.str(encode_job_outcome(*entry.outcome));
    std::string body = w.take();
    WireWriter trailer;
    trailer.u32(crc32(body));
    return body + trailer.take();
}

StatusOr<SpoolEntry> decode_spool_entry(std::string_view bytes) {
    if (bytes.size() < 4) {
        return Status(StatusCode::InvariantViolation, "spool record truncated");
    }
    const std::string_view body = bytes.substr(0, bytes.size() - 4);
    WireReader crc_reader(bytes.substr(bytes.size() - 4));
    std::uint32_t stored_crc = 0;
    crc_reader.u32(stored_crc);
    if (stored_crc != crc32(body)) {
        return Status(StatusCode::InvariantViolation, "spool record CRC mismatch");
    }

    WireReader r(body);
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    SpoolEntry entry;
    std::uint8_t state = 0;
    std::uint8_t tier = 0;
    std::string spec_bytes;
    std::uint8_t has_outcome = 0;
    if (!(r.u32(magic) && r.u32(version) && r.u64(entry.id) && r.u8(state) &&
          r.u32(entry.retries) && r.u8(tier) && r.str(spec_bytes) && r.u8(has_outcome))) {
        return Status(StatusCode::InvariantViolation, "spool record malformed");
    }
    if (magic != kSpoolMagic) {
        return Status(StatusCode::InvariantViolation, "spool record bad magic");
    }
    if (version != kSpoolVersion) {
        return Status(StatusCode::Unsupported,
                      "spool record version " + std::to_string(version));
    }
    if (state > 4 || tier > 1) {
        return Status(StatusCode::InvariantViolation, "spool record bad state/tier");
    }
    entry.state = static_cast<JobState>(state);
    entry.tier = static_cast<JobTier>(tier);
    WireReader spec_reader(spec_bytes);
    if (!decode_job_spec(spec_reader, entry.spec)) {
        return Status(StatusCode::InvariantViolation, "spool record bad job spec");
    }
    if (has_outcome != 0) {
        std::string outcome_bytes;
        if (!r.str(outcome_bytes)) {
            return Status(StatusCode::InvariantViolation, "spool record truncated outcome");
        }
        WireReader outcome_reader(outcome_bytes);
        JobOutcome outcome;
        if (!decode_job_outcome(outcome_reader, outcome)) {
            return Status(StatusCode::InvariantViolation, "spool record bad outcome");
        }
        entry.outcome = std::move(outcome);
    }
    return entry;
}

bool parse_spool_record_name(std::string_view name, std::uint64_t& id) {
    if (name.size() < 10 || name.substr(0, 4) != "job-" ||
        name.substr(name.size() - 6) != ".spool") {
        return false;
    }
    const std::string_view digits = name.substr(4, name.size() - 10);
    if (digits.size() > 19) return false;  // 20 digits may overflow u64
    id = 0;
    for (const char c : digits) {
        if (c < '0' || c > '9') return false;
        id = id * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return true;
}

Status Spool::ensure_dir() const {
    if (::mkdir(dir_.c_str(), 0755) == 0 || errno == EEXIST) return Status::ok();
    return errno_status("mkdir " + dir_);
}

std::string Spool::path_for(std::uint64_t id) const {
    return dir_ + "/job-" + std::to_string(id) + ".spool";
}

Status Spool::write(const SpoolEntry& entry) const {
    const std::string bytes = encode_spool_entry(entry);
    const std::string final_path = path_for(entry.id);
    const std::string tmp_path = final_path + ".tmp";

    const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return errno_status("open " + tmp_path);
    Status written = write_full(fd, bytes.data(), bytes.size());
    if (written.is_ok() && ::fsync(fd) != 0) written = errno_status("fsync " + tmp_path);
    ::close(fd);
    if (!written.is_ok()) {
        ::unlink(tmp_path.c_str());
        return written;
    }
    if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
        const Status err = errno_status("rename " + tmp_path);
        ::unlink(tmp_path.c_str());
        return err;
    }
    fsync_dir(dir_);
    return Status::ok();
}

StatusOr<SpoolEntry> Spool::read(std::uint64_t id) const {
    LILY_ASSIGN_OR_RETURN(std::string bytes, read_file_bytes(path_for(id)));
    return decode_spool_entry(bytes);
}

Status Spool::remove(std::uint64_t id) const {
    if (::unlink(path_for(id).c_str()) != 0 && errno != ENOENT) {
        return errno_status("unlink " + path_for(id));
    }
    return Status::ok();
}

StatusOr<SpoolScan> Spool::scan() const {
    DIR* d = ::opendir(dir_.c_str());
    if (d == nullptr) return errno_status("opendir " + dir_);
    SpoolScan scan;
    for (;;) {
        errno = 0;
        const dirent* ent = ::readdir(d);
        if (ent == nullptr) break;
        const std::string name = ent->d_name;
        if (name.size() < 6 || name.compare(name.size() - 6, 6, ".spool") != 0) continue;
        std::uint64_t name_id = 0;
        if (parse_spool_record_name(name, name_id)) {
            scan.max_record_id = std::max(scan.max_record_id, name_id);
        }
        const StatusOr<std::string> bytes = read_file_bytes(dir_ + "/" + name);
        StatusOr<SpoolEntry> entry =
            bytes.is_ok() ? decode_spool_entry(bytes.value()) : bytes.status();
        if (!entry.is_ok()) {
            scan.skipped.push_back(name + ": " + entry.status().to_string());
            continue;
        }
        scan.max_record_id = std::max(scan.max_record_id, entry.value().id);
        scan.entries.push_back(std::move(entry).value());
    }
    ::closedir(d);
    std::sort(scan.entries.begin(), scan.entries.end(),
              [](const SpoolEntry& a, const SpoolEntry& b) { return a.id < b.id; });
    return scan;
}

}  // namespace lily
