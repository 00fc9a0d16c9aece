#include "sim/memsys.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace microtools::sim {

MemorySystem::MemorySystem(const MachineConfig& config) : config_(config) {
  if (config_.sockets <= 0 || config_.coresPerSocket <= 0) {
    throw McError("machine must have at least one socket and core");
  }
  for (int c = 0; c < config_.totalCores(); ++c) {
    cores_.push_back(CorePrivate{
        {},
        CacheLevel(config_.l1.sizeBytes, config_.l1.ways, config_.lineBytes),
        CacheLevel(config_.l2.sizeBytes, config_.l2.ways, config_.lineBytes)});
  }
  for (int s = 0; s < config_.sockets; ++s) {
    sockets_.push_back(Socket{
        {std::vector<std::uint64_t>(
             static_cast<std::size_t>(config_.memChannelsPerSocket), 0),
         0},
        CacheLevel(config_.l3.sizeBytes, config_.l3.ways, config_.lineBytes)});
  }
  l3LatencyCycles_ = config_.nsToCoreCycles(config_.l3.latencyNs);
  memLatencyCycles_ = config_.nsToCoreCycles(config_.memLatencyNs);
  qpiLatencyCycles_ = config_.nsToCoreCycles(20.0);
  channelOccupancy_ = std::max<std::uint64_t>(1, config_.channelOccupancyCycles());
  // The L3 runs in the uncore clock domain: its fill occupancy is constant
  // in wall time, so the core-cycle value scales with the core clock
  // (Figure 13: L3 timings are frequency independent in rdtsc cycles).
  l3FillCycles_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(config_.l3FillCycles * config_.coreGHz /
                                        config_.nominalGHz +
                                    0.5));
}

int MemorySystem::socketOfCore(int coreId) const {
  if (coreId < 0 || coreId >= config_.totalCores()) {
    throw McError("core id out of range: " + std::to_string(coreId));
  }
  return coreId / config_.coresPerSocket;
}

void MemorySystem::setHomeSocket(std::uint64_t base, std::uint64_t size,
                                 int socket) {
  if (socket < 0 || socket >= config_.sockets) {
    throw McError("home socket out of range: " + std::to_string(socket));
  }
  homeRanges_.push_back({base, size, socket});
}

int MemorySystem::homeSocket(std::uint64_t addr) const {
  for (const HomeRange& r : homeRanges_) {
    if (addr >= r.base && addr - r.base < r.size) return r.socket;
  }
  return 0;
}

MemLevel MemorySystem::peekLevel(int coreId, std::uint64_t addr) const {
  const CorePrivate& core = cores_[static_cast<std::size_t>(coreId)];
  std::uint64_t line = lineOf(addr);
  if (core.l1.contains(line)) return MemLevel::L1;
  if (core.l2.contains(line) || core.pendingFills.count(line)) {
    return MemLevel::L2;
  }
  const Socket& socket = sockets_[static_cast<std::size_t>(socketOfCore(coreId))];
  if (socket.l3.contains(line)) return MemLevel::L3;
  return MemLevel::Ram;
}

std::uint64_t MemorySystem::dramFetch(Socket& socket,
                                      std::uint64_t earliestStart,
                                      bool remote) {
  auto it = std::min_element(socket.channelFree.begin(),
                             socket.channelFree.end());
  std::uint64_t start = std::max(earliestStart, *it);
  *it = start + channelOccupancy_;
  std::uint64_t arrival = start + memLatencyCycles_ + channelOccupancy_;
  if (remote) arrival += qpiLatencyCycles_;
  return arrival;
}

void MemorySystem::maybePrefetch(int coreId, std::uint64_t missLine,
                                 std::uint64_t cycle) {
  CorePrivate& core = cores_[static_cast<std::size_t>(coreId)];
  if (missLine == core.lastMissLine + 1) {
    ++core.streak;
  } else if (missLine != core.lastMissLine) {
    core.streak = 1;
  }
  core.lastMissLine = missLine;
  if (core.streak < config_.prefetchTrigger) return;

  int localSocket = socketOfCore(coreId);
  Socket& l3Socket = sockets_[static_cast<std::size_t>(localSocket)];
  std::uint64_t linesPerPage = 4096 / static_cast<std::uint64_t>(config_.lineBytes);
  for (int d = 1; d <= config_.prefetchDegree; ++d) {
    std::uint64_t line = missLine + static_cast<std::uint64_t>(d);
    // Hardware streamers do not prefetch across a 4 KiB page boundary (the
    // physical mapping of the next page is unknown); the stream re-arms
    // after the boundary. This caps single-stream bandwidth realistically.
    if (line / linesPerPage != missLine / linesPerPage) break;
    if (core.l2.contains(line) || core.pendingFills.count(line)) continue;
    std::uint64_t arrival;
    if (l3Socket.l3.lookup(line)) {
      std::uint64_t start = std::max(cycle, l3Socket.l3PortFree);
      l3Socket.l3PortFree =
          start + l3FillCycles_;
      arrival = start + l3LatencyCycles_;
    } else {
      std::uint64_t byteAddr =
          line * static_cast<std::uint64_t>(config_.lineBytes);
      int home = homeSocket(byteAddr);
      arrival = dramFetch(sockets_[static_cast<std::size_t>(home)],
                          cycle + l3LatencyCycles_, home != localSocket);
      l3Socket.l3.insert(line);
    }
    core.l2.insert(line);
    core.pendingFills[line] = arrival;
    ++prefetches_;
  }
}

AccessResult MemorySystem::fetchLine(int coreId, std::uint64_t lineAddr,
                                     std::uint64_t cycle) {
  CorePrivate& core = cores_[static_cast<std::size_t>(coreId)];
  AccessResult result;

  std::uint64_t l1Latency = static_cast<std::uint64_t>(config_.l1.latencyCycles);
  if (core.l1.lookup(lineAddr)) {
    result.level = MemLevel::L1;
    result.completeCycle = cycle + l1Latency;
    return result;
  }

  std::uint64_t l2Latency = static_cast<std::uint64_t>(config_.l2.latencyCycles);
  // Train the stream prefetcher on every L1 miss — including accesses that
  // hit lines already prefetched into L2 — so a stream keeps advancing
  // instead of stalling at the end of each prefetch window.
  maybePrefetch(coreId, lineAddr, cycle);
  // A line still in flight from the prefetcher counts as an L2 hit that may
  // have to wait for the fill to arrive.
  if (auto it = core.pendingFills.find(lineAddr);
      it != core.pendingFills.end()) {
    std::uint64_t arrival = it->second;
    if (arrival <= cycle) {
      core.pendingFills.erase(it);
    } else {
      result.level = MemLevel::L2;
      result.completeCycle = std::max(cycle + l1Latency + l2Latency,
                                      arrival + l1Latency);
      core.l1.insert(lineAddr);
      return result;
    }
  }

  if (core.l2.lookup(lineAddr)) {
    result.level = MemLevel::L2;
    std::uint64_t start = std::max(cycle, core.l2PortFree);
    core.l2PortFree = start + static_cast<std::uint64_t>(config_.l2FillCycles);
    result.completeCycle = start + l1Latency + l2Latency;
    core.l1.insert(lineAddr);
    return result;
  }

  // L2 demand miss: consult the socket L3.
  int localSocket = socketOfCore(coreId);
  Socket& socket = sockets_[static_cast<std::size_t>(localSocket)];
  if (socket.l3.lookup(lineAddr)) {
    result.level = MemLevel::L3;
    std::uint64_t start = std::max(cycle, socket.l3PortFree);
    socket.l3PortFree =
        start + l3FillCycles_;
    result.completeCycle = start + l1Latency + l2Latency + l3LatencyCycles_;
  } else {
    std::uint64_t byteAddr =
        lineAddr * static_cast<std::uint64_t>(config_.lineBytes);
    int home = homeSocket(byteAddr);
    result.level = MemLevel::Ram;
    result.completeCycle =
        dramFetch(sockets_[static_cast<std::size_t>(home)],
                  cycle + l1Latency + l2Latency + l3LatencyCycles_,
                  home != localSocket);
    socket.l3.insert(lineAddr);
  }
  core.l2.insert(lineAddr);
  core.l1.insert(lineAddr);
  return result;
}

AccessResult MemorySystem::access(int coreId, std::uint64_t addr, int bytes,
                                  std::uint64_t cycle) {
  if (coreId < 0 || coreId >= config_.totalCores()) {
    throw McError("core id out of range: " + std::to_string(coreId));
  }
  std::uint64_t firstLine = lineOf(addr);
  std::uint64_t lastLine = lineOf(addr + static_cast<std::uint64_t>(bytes) - 1);
  AccessResult result = fetchLine(coreId, firstLine, cycle);
  levelCounts_[static_cast<int>(result.level)]++;
  if (lastLine != firstLine) {
    AccessResult second = fetchLine(coreId, lastLine, cycle);
    result.completeCycle =
        std::max(result.completeCycle, second.completeCycle) +
        static_cast<std::uint64_t>(config_.splitLinePenalty);
    result.level = std::max(result.level, second.level);
    result.splitLine = true;
  }
  return result;
}

AccessResult MemorySystem::load(int coreId, std::uint64_t addr, int bytes,
                                std::uint64_t cycle) {
  return access(coreId, addr, bytes, cycle);
}

AccessResult MemorySystem::store(int coreId, std::uint64_t addr, int bytes,
                                 std::uint64_t cycle) {
  // Write-allocate: the RFO follows the same path as a load. The returned
  // completion is the ownership time (fill-buffer release), not a pipeline
  // stall.
  return access(coreId, addr, bytes, cycle);
}

void MemorySystem::touch(int coreId, std::uint64_t addr, std::uint64_t bytes) {
  CorePrivate& core = cores_[static_cast<std::size_t>(coreId)];
  Socket& socket = sockets_[static_cast<std::size_t>(socketOfCore(coreId))];
  std::uint64_t first = lineOf(addr);
  std::uint64_t last = lineOf(addr + (bytes ? bytes - 1 : 0));
  for (std::uint64_t line = first; line <= last; ++line) {
    socket.l3.insert(line);
    core.l2.insert(line);
    core.l1.insert(line);
  }
}

void MemorySystem::clearCaches() {
  forEachCache(*this, [](CacheLevel& cache) { cache.clear(); });
  for (CorePrivate& core : cores_) static_cast<CoreState&>(core) = {};
  for (Socket& socket : sockets_) {
    std::fill(socket.channelFree.begin(), socket.channelFree.end(), 0);
    socket.l3PortFree = 0;
  }
  for (auto& c : levelCounts_) c = 0;
  prefetches_ = 0;
}

std::uint64_t MemorySystem::levelCount(MemLevel level) const {
  return levelCounts_[static_cast<int>(level)];
}

std::uint64_t MemorySystem::stateFingerprint(std::uint64_t clock) {
  hash::Fnv1a h;
  forEachCache(*this, [&h](CacheLevel& cache) { h.u64(cache.digest()); });
  hashScalarState(h, clock);
  return h.value();
}

std::uint64_t MemorySystem::referenceFingerprint(std::uint64_t clock) const {
  hash::Fnv1a h;
  forEachCache(*this,
               [&h](const CacheLevel& cache) { h.u64(cache.hashState()); });
  hashScalarState(h, clock);
  return h.value();
}

void MemorySystem::hashScalarState(hash::Fnv1a& h, std::uint64_t clock) const {
  // Busy-times in the past are equivalent to "free now": every consumer
  // computes max(cycle, free), so any value <= clock behaves like clock.
  auto rel = [clock](std::uint64_t t) { return t > clock ? t - clock : 0; };
  h.u64(cores_.size()).u64(sockets_.size());
  for (const CorePrivate& core : cores_) {
    h.u64(rel(core.l2PortFree));
    h.u64(core.lastMissLine);
    h.u64(static_cast<std::uint64_t>(core.streak));
    // Arrived-but-unconsumed fills still gate maybePrefetch via their map
    // presence, so they are hashed (with relative arrival 0) rather than
    // dropped.
    h.u64(core.pendingFills.size());
    for (const auto& [line, arrival] : core.pendingFills) {
      h.u64(line).u64(rel(arrival));
    }
  }
  for (const Socket& socket : sockets_) {
    h.u64(rel(socket.l3PortFree));
    h.u64(socket.channelFree.size());
    for (std::uint64_t f : socket.channelFree) h.u64(rel(f));
  }
  h.u64(homeRanges_.size());
  for (const HomeRange& r : homeRanges_) {
    h.u64(r.base).u64(r.size).u64(static_cast<std::uint64_t>(r.socket));
  }
}

MemorySystem::Delta MemorySystem::captureDelta() const {
  Delta delta;
  forEachCache(*this, [&delta](const CacheLevel& cache) {
    cache.saveChanged(delta.sets.emplace_back());
  });
  delta.cores.assign(cores_.begin(), cores_.end());
  delta.sockets.assign(sockets_.begin(), sockets_.end());
  return delta;
}

void MemorySystem::applyDelta(const Delta& delta) {
  if (delta.cores.size() != cores_.size() ||
      delta.sockets.size() != sockets_.size()) {
    throw McError("memory delta was captured on a different machine");
  }
  auto image = delta.sets.begin();
  forEachCache(*this, [&image](CacheLevel& cache) { cache.restore(*image++); });
  for (std::size_t c = 0; c < cores_.size(); ++c) {
    static_cast<CoreState&>(cores_[c]) = delta.cores[c];
  }
  for (std::size_t s = 0; s < sockets_.size(); ++s) {
    static_cast<SocketState&>(sockets_[s]) = delta.sockets[s];
  }
}

void MemorySystem::creditReplayedAccesses(const std::uint64_t levelDeltas[5],
                                          std::uint64_t prefetchDelta) {
  for (int i = 0; i < 5; ++i) levelCounts_[i] += levelDeltas[i];
  prefetches_ += prefetchDelta;
}

bool MemorySystem::refreshL1(int coreId, std::uint64_t addr, int bytes) {
  CorePrivate& core = cores_[static_cast<std::size_t>(coreId)];
  std::uint64_t firstLine = lineOf(addr);
  std::uint64_t lastLine =
      lineOf(addr + static_cast<std::uint64_t>(bytes) - 1);
  bool ok = core.l1.lookup(firstLine);
  if (lastLine != firstLine) ok = core.l1.lookup(lastLine) && ok;
  return ok;
}

void MemorySystem::translateInFlight(std::uint64_t delta) {
  for (CorePrivate& core : cores_) {
    core.l2PortFree += delta;
    for (auto& [line, arrival] : core.pendingFills) arrival += delta;
  }
  for (Socket& socket : sockets_) {
    socket.l3PortFree += delta;
    for (std::uint64_t& f : socket.channelFree) f += delta;
  }
}

}  // namespace microtools::sim
