#include "check/check.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>

namespace lily {

namespace {

std::optional<CheckLevel> match_check_level(std::string_view text) {
    std::string lower(text);
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    if (lower == "off" || lower == "none" || lower == "0") return CheckLevel::Off;
    if (lower == "light" || lower == "1") return CheckLevel::Light;
    return std::nullopt;
}

}  // namespace

CheckLevel parse_check_level(std::string_view text, CheckLevel fallback) {
    return match_check_level(text).value_or(fallback);
}

CheckLevel check_level_from_env() {
    static const CheckLevel cached = [] {
        const char* env = std::getenv("LILY_CHECK_LEVEL");
        if (env == nullptr) return CheckLevel::Off;
        const std::optional<CheckLevel> level = match_check_level(env);
        if (!level.has_value()) {
            std::fprintf(stderr, "lily: LILY_CHECK_LEVEL='%s' is not one of off|light; "
                                 "checks stay off\n", env);
        }
        return level.value_or(CheckLevel::Off);
    }();
    return cached;
}

const char* to_string(CheckStage stage) {
    switch (stage) {
        case CheckStage::Network: return "network";
        case CheckStage::Subject: return "subject";
        case CheckStage::Match: return "match";
        case CheckStage::Placement: return "placement";
        case CheckStage::Mapped: return "mapped";
        case CheckStage::Pipeline: return "pipeline";
        case CheckStage::Verify: return "verify";
        case CheckStage::Serve: return "serve";
    }
    return "?";
}

const char* to_string(CheckSeverity severity) {
    return severity == CheckSeverity::Error ? "error" : "warning";
}

std::string CheckIssue::to_string() const {
    std::string s = lily::to_string(severity);
    s += " [";
    s += lily::to_string(stage);
    s += "]";
    if (node != kNoCheckNode) {
        s += " node ";
        s += std::to_string(node);
    }
    s += ": ";
    s += message;
    return s;
}

void CheckReport::merge(const CheckReport& other) {
    issues_.insert(issues_.end(), other.issues_.begin(), other.issues_.end());
}

std::size_t CheckReport::error_count() const {
    return static_cast<std::size_t>(
        std::count_if(issues_.begin(), issues_.end(),
                      [](const CheckIssue& i) { return i.severity == CheckSeverity::Error; }));
}

std::size_t CheckReport::warning_count() const { return issues_.size() - error_count(); }

bool CheckReport::mentions(std::string_view needle) const {
    return std::any_of(issues_.begin(), issues_.end(), [&](const CheckIssue& i) {
        return i.message.find(needle) != std::string::npos;
    });
}

std::string CheckReport::to_string() const {
    std::string s;
    for (const CheckIssue& i : issues_) {
        s += i.to_string();
        s += '\n';
    }
    return s;
}

void CheckReport::throw_if_errors(const std::string& context) const {
    if (!has_errors()) return;
    throw std::logic_error(context + ": invariant check failed\n" + to_string());
}

}  // namespace lily
