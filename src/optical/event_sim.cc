#include "optical/event_sim.h"

#include "util/check.h"

namespace arrow::optical {

void EventQueue::schedule(double time, Handler handler) {
  ARROW_CHECK(time >= now_, "cannot schedule into the past");
  queue_.push(Event{time, next_seq_++, std::move(handler)});
}

void EventQueue::run_next() {
  // The handler may schedule more events; copy out before popping.
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = ev.time;
  ev.handler(now_);
}

double EventQueue::run() {
  while (!queue_.empty()) run_next();
  return now_;
}

void EventQueue::run_until(double t) {
  while (!queue_.empty() && queue_.top().time <= t) run_next();
  if (t > now_) now_ = t;
}

}  // namespace arrow::optical
