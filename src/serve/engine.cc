#include "serve/engine.h"

#include <chrono>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace cned {
namespace {

using Clock = std::chrono::steady_clock;

ServeResult ShedResult() {
  ServeResult res;
  res.shed = true;
  return res;
}

}  // namespace

ServeEngine::ServeEngine(ServeRouter& router, const ServeEngineOptions& options)
    : router_(router), options_(options) {
  if (options.max_batch < 1) {
    throw std::invalid_argument("ServeEngineOptions::max_batch must be >= 1");
  }
  if (options.max_inflight < 1) {
    throw std::invalid_argument(
        "ServeEngineOptions::max_inflight must be >= 1");
  }
  if (options.max_queue < 1) {
    throw std::invalid_argument("ServeEngineOptions::max_queue must be >= 1");
  }
  if (options.admission_timeout_ms < 1) {
    throw std::invalid_argument(
        "ServeEngineOptions::admission_timeout_ms must be >= 1");
  }
  driver_ = std::thread(&ServeEngine::DriverMain, this);
}

ServeEngine::~ServeEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  claim_cv_.notify_one();
  if (driver_.joinable()) driver_.join();
}

void ServeEngine::DriverMain() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    claim_cv_.wait(lock, [this] {
      return stop_ ||
             (!queue_.empty() && inflight_ < options_.max_inflight);
    });
    if (stop_) return;
    std::vector<Pending*> batch;
    while (!queue_.empty() && batch.size() < options_.max_batch &&
           inflight_ < options_.max_inflight) {
      Pending* p = queue_.front();
      queue_.pop_front();
      p->claimed = true;
      ++inflight_;
      batch.push_back(p);
    }
    // Rows are computed off the admission lock, while the claimed entries
    // are exclusively ours.
    lock.unlock();
    ComputeRows(batch);
    batches_.fetch_add(1, std::memory_order_relaxed);
    batched_queries_.fetch_add(batch.size(), std::memory_order_relaxed);
    lock.lock();
    for (Pending* p : batch) {
      p->ready = true;
      p->cv.notify_one();  // precise: only the caller whose row this is
    }
  }
}

void ServeEngine::ComputeRows(const std::vector<Pending*>& batch) {
  const std::vector<std::string>& pivots = router_.pivot_strings();
  const StringDistance& metric = router_.metric();
  const std::size_t np = pivots.size();

  // Duplicate query strings collapse to one row for the whole claim.
  std::vector<Pending*> uniques;
  std::vector<std::size_t> owner_of(batch.size());
  std::unordered_map<std::string_view, std::size_t> first;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto it = first.emplace(batch[i]->query, uniques.size());
    owner_of[i] = it.first->second;
    if (it.second) uniques.push_back(batch[i]);
  }
  for (Pending* u : uniques) u->row.resize(np);

  // The blocked pass, pivot-major: each pivot string streams once across
  // the whole claim while it is hot in cache — the serving-side mirror of
  // BatchQueryEngine's stage 1. Entries are independent per (query, pivot)
  // pair, so the traversal order cannot perturb a single bit.
  for (std::size_t p = 0; p < np; ++p) {
    for (Pending* u : uniques) {
      u->row[p] = metric.Distance(u->query, pivots[p]);
    }
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Pending* owner = uniques[owner_of[i]];
    if (batch[i] != owner) batch[i]->row = owner->row;
  }
  deduped_rows_.fetch_add(batch.size() - uniques.size(),
                          std::memory_order_relaxed);
}

ServeResult ServeEngine::KNearest(std::string_view query, std::size_t k) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(options_.admission_timeout_ms);

  Pending entry;
  entry.query.assign(query.data(), query.size());
  entry.k = k;

  std::unique_lock<std::mutex> lock(mu_);
  if (queue_.size() >= options_.max_queue) {
    // Overload answer #1: a full admission queue sheds on arrival —
    // refusing fast keeps the queue wait of admitted queries bounded.
    shed_queries_.fetch_add(1, std::memory_order_relaxed);
    return ShedResult();
  }
  queue_.push_back(&entry);
  claim_cv_.notify_one();

  if (!entry.cv.wait_until(lock, deadline, [&] { return entry.claimed; })) {
    // Overload answer #2: the admission deadline expired while still
    // unclaimed — withdraw and refuse.
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (*it == &entry) {
        queue_.erase(it);
        break;
      }
    }
    shed_queries_.fetch_add(1, std::memory_order_relaxed);
    return ShedResult();
  }
  // Claimed: the admission thread holds the pointer until the row is
  // ready.
  entry.cv.wait(lock, [&] { return entry.ready; });
  lock.unlock();

  // The read runs on this thread; the in-flight slot is released however
  // it ends.
  struct Release {
    ServeEngine* e;
    ~Release() {
      {
        std::lock_guard<std::mutex> l(e->mu_);
        --e->inflight_;
      }
      e->claim_cv_.notify_one();
    }
  } release{this};
  return router_.KNearestWithRow(entry.query, entry.k, entry.row);
}

}  // namespace cned
