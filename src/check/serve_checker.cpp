#include "check/serve_checker.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <dirent.h>

#include "serve/spool.hpp"

namespace lily {

CheckReport ServeChecker::check_spool(const std::string& spool_dir) const {
    CheckReport report;
    DIR* d = ::opendir(spool_dir.c_str());
    if (d == nullptr) {
        report.error(CheckStage::Serve, kNoCheckNode,
                     "spool directory unreadable: " + spool_dir + " (" +
                         std::strerror(errno) + ")");
        return report;
    }

    std::set<std::uint64_t> seen_ids;
    for (;;) {
        errno = 0;
        const dirent* ent = ::readdir(d);
        if (ent == nullptr) break;
        const std::string name = ent->d_name;
        if (name == "." || name == "..") continue;
        if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
            report.warning(CheckStage::Serve, kNoCheckNode,
                           "leftover temp record (interrupted atomic write): " + name);
            continue;
        }
        std::uint64_t name_id = 0;
        if (!parse_spool_record_name(name, name_id)) {
            report.warning(CheckStage::Serve, kNoCheckNode,
                           "foreign file in spool directory: " + name);
            continue;
        }

        const std::string path = spool_dir + "/" + name;
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        if (!in.good() && !in.eof()) {
            report.error(CheckStage::Serve, name_id, "unreadable record: " + name);
            continue;
        }
        const StatusOr<SpoolEntry> entry = decode_spool_entry(buf.str());
        if (!entry.is_ok()) {
            report.error(CheckStage::Serve, name_id,
                         name + ": " + entry.status().to_string());
            continue;
        }
        const SpoolEntry& rec = entry.value();
        if (rec.id != name_id) {
            report.error(CheckStage::Serve, name_id,
                         name + ": embedded id " + std::to_string(rec.id) +
                             " disagrees with filename");
        }
        if (!seen_ids.insert(rec.id).second) {
            report.error(CheckStage::Serve, rec.id, "duplicate job id in spool");
        }
        if (job_state_terminal(rec.state)) {
            if (!rec.outcome.has_value()) {
                report.error(CheckStage::Serve, rec.id,
                             name + ": terminal record without an outcome");
            } else if (rec.outcome->state != rec.state) {
                report.error(CheckStage::Serve, rec.id,
                             name + ": outcome state '" +
                                 std::string(to_string(rec.outcome->state)) +
                                 "' disagrees with record state '" + to_string(rec.state) +
                                 "'");
            }
        } else if (rec.outcome.has_value()) {
            report.warning(CheckStage::Serve, rec.id,
                           name + ": non-terminal record carries an outcome");
        }
        if (rec.spec.blif.empty()) {
            report.error(CheckStage::Serve, rec.id, name + ": record with empty circuit");
        }
    }
    ::closedir(d);
    return report;
}

}  // namespace lily
