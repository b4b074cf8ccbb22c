// Structured error propagation for the pipeline's fallible boundaries.
//
// The flow engine distinguishes *recoverable* stage failures (a parser
// rejecting its input, a solver that will not converge, a stage running out
// of its wall-clock budget) from programming errors. Recoverable failures
// travel as `Status` / `StatusOr<T>` values so callers can climb the
// graceful-degradation ladder (flow/flow.hpp) instead of unwinding. Each
// job has one `*_checked` entry point; a caller that wants an exception
// unwraps its result with StatusOr::take_or_raise().
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace lily {

/// Failure taxonomy. The code decides which degradation rung applies —
/// keep it coarse; detail belongs in the message.
enum class StatusCode : std::uint8_t {
    Ok,
    ParseError,          // malformed input text (BLIF, genlib, equations)
    ConvergenceFailure,  // an iterative solver diverged or produced non-finite state
    BudgetExhausted,     // a StageBudget deadline or iteration cap fired
    InvariantViolation,  // a pipeline checker found corrupted intermediate state
    Unsupported,         // input is valid but outside the implemented subset
    Internal,            // wrapped unexpected exception
};

const char* to_string(StatusCode code);

/// An error code plus a human-readable message with a context chain
/// ("run_lily_flow_checked: placement: cg diverged"). The default-constructed
/// Status is OK.
class Status {
public:
    Status() = default;
    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message)) {}

    static Status ok() { return Status(); }
    static Status parse_error(std::size_t line, std::string_view what,
                              std::string_view source = "input");

    bool is_ok() const { return code_ == StatusCode::Ok; }
    StatusCode code() const { return code_; }
    const std::string& message() const { return message_; }

    /// Prepend a context frame to the message ("ctx: old message").
    Status& with_context(std::string_view context);

    /// "parse-error: blif:12: bad cube" (or "ok").
    std::string to_string() const;

    /// Throw the exception type that matches this code:
    /// InvariantViolation -> std::logic_error, everything else ->
    /// std::runtime_error. No-op free pass is a bug: calling raise() on an
    /// OK status throws std::logic_error.
    [[noreturn]] void raise() const;

private:
    StatusCode code_ = StatusCode::Ok;
    std::string message_;
};

/// A value or the Status explaining its absence.
template <typename T>
class StatusOr {
public:
    StatusOr(T value) : value_(std::move(value)) {}        // NOLINT(google-explicit-constructor)
    StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
        if (status_.is_ok()) {
            status_ = Status(StatusCode::Internal, "StatusOr constructed from OK status");
        }
    }

    bool is_ok() const { return value_.has_value(); }
    const Status& status() const { return status_; }

    T& value() & { return *value_; }
    const T& value() const& { return *value_; }
    T&& value() && { return *std::move(value_); }

    /// Return the value or throw per Status::raise().
    T take_or_raise() && {
        if (!is_ok()) status_.raise();
        return *std::move(value_);
    }

private:
    Status status_;
    std::optional<T> value_;
};

// Early-return plumbing for Status-returning functions.
#define LILY_RETURN_IF_ERROR(expr)                       \
    do {                                                 \
        ::lily::Status lily_status_ = (expr);            \
        if (!lily_status_.is_ok()) return lily_status_;  \
    } while (false)

#define LILY_STATUS_CONCAT_(a, b) a##b
#define LILY_STATUS_CONCAT(a, b) LILY_STATUS_CONCAT_(a, b)

/// LILY_ASSIGN_OR_RETURN(auto x, fn()) — binds the value or propagates the
/// error Status to the caller.
#define LILY_ASSIGN_OR_RETURN(decl, expr)                                      \
    auto LILY_STATUS_CONCAT(lily_sor_, __LINE__) = (expr);                     \
    if (!LILY_STATUS_CONCAT(lily_sor_, __LINE__).is_ok())                      \
        return LILY_STATUS_CONCAT(lily_sor_, __LINE__).status();               \
    decl = std::move(LILY_STATUS_CONCAT(lily_sor_, __LINE__)).value()

}  // namespace lily
