#include "src/hsim/engine.h"

#include <utility>

namespace hsim {
namespace {

// Self-destroying wrapper frame for top-level tasks.
struct DetachedTask {
  struct promise_type {
    DetachedTask get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
};

DetachedTask RunDetached(Engine* engine, Task<void> task, std::uint64_t* live_counter) {
  // The moved-in task lives in this frame and is destroyed with it.
  co_await task;
  --*live_counter;
  (void)engine;
}

}  // namespace

std::uint64_t Engine::Push(Tick at, std::coroutine_handle<> handle, std::uint64_t flags) {
  if (at < now_) {
    at = now_;
  }
  const std::uint64_t seq = next_seq_ | flags;
  queue_.push(Event{at, seq, handle});
  next_seq_ += 2;
  return seq;
}

void Engine::ScheduleAt(Tick at, std::coroutine_handle<> handle) { Push(at, handle, 0); }

std::uint64_t Engine::ScheduleCancellable(Tick at, std::coroutine_handle<> handle) {
  return Push(at, handle, kCancellable);
}

inline void Engine::RunNext() {
  const Event event = queue_.top();
  queue_.pop();
  ++events_processed_;
  if ((event.seq & kCancellable) != 0 && cancelled_.erase(event.seq) != 0) {
    return;
  }
  now_ = event.at;
  event.handle.resume();
}

bool Engine::TopIsCancelled() const {
  const std::uint64_t seq = queue_.top().seq;
  return (seq & kCancellable) != 0 && cancelled_.count(seq) != 0;
}

void Engine::Spawn(Task<void> task) {
  ++live_tasks_;
  // The detached frame starts eagerly: it runs the task inline until the task
  // first suspends on an engine awaitable.  This is equivalent to starting at
  // the current tick.
  RunDetached(this, std::move(task), &live_tasks_);
}

Tick Engine::RunUntilIdle() {
  while (!queue_.empty()) {
    RunNext();
  }
  return now_;
}

bool Engine::RunUntil(Tick until) {
  // A cancelled event past `until` is dropped now rather than at its tick,
  // so a queue holding nothing else reports drained.
  while (!queue_.empty() && (queue_.top().at <= until || TopIsCancelled())) {
    RunNext();
  }
  if (queue_.empty()) {
    return true;
  }
  now_ = until;
  return false;
}

}  // namespace hsim
