// Minimal discrete-event simulation engine: the physical-layer restoration
// latency model (latency.h) and the control loop's clock (ctrl::Session)
// both run on it.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace arrow::optical {

class EventQueue {
 public:
  using Handler = std::function<void(double now)>;

  // Schedule `handler` at absolute time `time` (seconds). Events at equal
  // times run in scheduling order.
  void schedule(double time, Handler handler);

  // Run all events; returns the timestamp of the last event (now() if none
  // ran).
  double run();

  // Run the events at or before `t` in time order (equal times in
  // scheduling order, handlers' own events included); later events stay
  // queued. The clock then reads `t`, or stays where it was if later.
  void run_until(double t);

  double now() const { return now_; }

 private:
  void run_next();

  struct Event {
    double time;
    std::uint64_t seq;
    Handler handler;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::uint64_t next_seq_ = 0;
  double now_ = 0.0;
};

}  // namespace arrow::optical
