// Cooperative cancellation and deadlines.
//
// A CancelToken is an atomic flag plus an optional steady-clock deadline.
// The issuer keeps the token alive for the duration of the query and flips
// it with RequestCancel() (or lets the deadline expire); executing code
// polls Check() at morsel boundaries and — through a stride-based
// CancelTicker — inside serial scan loops. The fast path of Check() is one
// relaxed atomic load plus (when a deadline is set) one clock read per
// call; callers keep it off the per-tuple hot path by ticking every
// kCancelStride tuples.
//
// Tokens can be chained: a child token created with a parent observes the
// parent's cancellation/deadline too. EngineRunner uses this to combine a
// caller-supplied token with a per-query deadline without mutating the
// caller's token.
//
// CancelledException exists to unwind out of tree-scan callbacks
// (ForEachMatch & friends have no early-exit protocol); Plan::Run and the
// worker-pool batch error path convert it back to its Status.

#ifndef QPPT_UTIL_CANCEL_H_
#define QPPT_UTIL_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <string>
#include <utility>

#include "util/status.h"

namespace qppt {

class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(const CancelToken* parent) : parent_(parent) {}

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  // Flags the token; every subsequent Check() returns Cancelled. Safe to
  // call from any thread, any number of times.
  void RequestCancel() {
    // relaxed: the flag is the only data being communicated; best-effort
    // delivery is the contract — polls observe it eventually.
    cancelled_.store(true, std::memory_order_relaxed);
  }

  bool cancel_requested() const {
    // relaxed: standalone flag read, no dependent data.
    return cancelled_.load(std::memory_order_relaxed) ||
           (parent_ != nullptr && parent_->cancel_requested());
  }

  // Sets an absolute steady-clock deadline. Passing a time in the past
  // makes the very next Check() fail.
  void SetDeadline(std::chrono::steady_clock::time_point tp) {
    // relaxed: the deadline is a self-contained value; polls comparing
    // it against the clock need no ordering with other memory.
    deadline_ns_.store(tp.time_since_epoch().count(),
                       std::memory_order_relaxed);
  }
  void SetDeadlineAfter(double ms) {
    SetDeadline(std::chrono::steady_clock::now() +
                std::chrono::nanoseconds(
                    static_cast<int64_t>(ms * 1e6)));
  }

  bool has_deadline() const {
    // relaxed: standalone value read, no dependent data.
    return deadline_ns_.load(std::memory_order_relaxed) != kNoDeadline ||
           (parent_ != nullptr && parent_->has_deadline());
  }

  // OK while the query may keep running; Cancelled / DeadlineExceeded once
  // it must stop. Cancellation wins over deadline expiry when both hold.
  Status Check() const {
    // relaxed: cancellation is a best-effort signal of a self-contained
    // value — no other memory is published with it.
    if (cancelled_.load(std::memory_order_relaxed)) {
      return Status::Cancelled("query cancelled");
    }
    // relaxed: same — the deadline is compared against the clock only.
    int64_t dl = deadline_ns_.load(std::memory_order_relaxed);
    if (dl != kNoDeadline &&
        std::chrono::steady_clock::now().time_since_epoch().count() >= dl) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    if (parent_ != nullptr) return parent_->Check();
    return Status::OK();
  }

 private:
  static constexpr int64_t kNoDeadline = INT64_MIN;

  std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> deadline_ns_{kNoDeadline};
  const CancelToken* parent_ = nullptr;
};

// Base for exceptions that carry a Status through stack unwinding: used
// where error codes cannot flow normally (scan callbacks with no
// early-exit protocol, morsel bodies on the worker pool). Call sites at
// the top of the unwind convert back to the carried Status via
// StatusFromException.
class StatusException : public std::exception {
 public:
  explicit StatusException(Status status) : status_(std::move(status)) {
    message_ = status_.ToString();
  }
  const Status& status() const { return status_; }
  const char* what() const noexcept override { return message_.c_str(); }

 private:
  Status status_;
  std::string message_;
};

// Thrown to unwind out of scan callbacks when the query is cancelled or
// past its deadline.
class CancelledException : public StatusException {
 public:
  using StatusException::StatusException;
};

// Narrows a caught exception back to a Status: StatusException subtypes
// keep their carried code, allocation failure maps to ResourceExhausted,
// anything else to Internal.
inline Status StatusFromException(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const StatusException& e) {
    return e.status();
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("allocation failed");
  } catch (const std::exception& e) {
    return Status::Internal(e.what());
  } catch (...) {
    return Status::Internal("unknown exception");
  }
}

// Number of tuples a serial scan loop processes between cancellation
// checks. Large enough that the countdown (one predicted-not-taken branch
// and a register decrement) is invisible next to the per-tuple work.
inline constexpr uint32_t kCancelStride = 8192;

// Stride-based ticker for serial loops: Tick() is nearly free; every
// kCancelStride calls it polls the token and throws CancelledException if
// the query must stop. A null token makes Tick() a pure countdown.
class CancelTicker {
 public:
  explicit CancelTicker(const CancelToken* token) : token_(token) {}

  void Tick() {
    if (--countdown_ == 0) {
      countdown_ = kCancelStride;
      Poll();
    }
  }

  // Counts `n` tuples at once (a block-at-a-time loop's tick).
  void Tick(uint32_t n) {
    if (n < countdown_) {
      countdown_ -= n;
      return;
    }
    countdown_ = kCancelStride;
    Poll();
  }

 private:
  void Poll() const {
    if (token_ != nullptr) {
      Status st = token_->Check();
      if (!st.ok()) throw CancelledException(std::move(st));
    }
  }

  const CancelToken* token_;
  uint32_t countdown_ = kCancelStride;
};

}  // namespace qppt

#endif  // QPPT_UTIL_CANCEL_H_
