#include "src/ufab/wfq.hpp"

#include <algorithm>
#include <cmath>

#include "src/core/assert.hpp"

namespace ufab::edge {

int WfqScheduler::weight_to_level(double weight) const {
  if (weight <= base_weight_) return 0;
  const int level = static_cast<int>(std::floor(std::log2(weight / base_weight_) + 0.5));
  return std::clamp(level, 0, kLevels - 1);
}

void WfqScheduler::set_tenant_weight(TenantId tenant, double weight) {
  const int level = weight_to_level(weight);
  auto it = tenant_level_.find(tenant.value());
  if (it != tenant_level_.end() && it->second == level) return;
  // Move existing entities (with their backlog bits) if the tenant changes
  // level.
  if (it != tenant_level_.end()) {
    Level& old = levels_[it->second];
    if (TenantQueue* tq = find_tenant(old, tenant)) {
      TenantQueue moved = std::move(*tq);
      old.tenants.erase(old.tenants.begin() + (tq - old.tenants.data()));
      old.cursor = 0;
      old.pending_count -= moved.pending_count;
      reindex(it->second);
      moved.cursor = 0;
      levels_[level].pending_count += moved.pending_count;
      levels_[level].tenants.push_back(std::move(moved));
      reindex(level);
    }
  }
  tenant_level_[tenant.value()] = level;
}

WfqScheduler::TenantQueue* WfqScheduler::find_tenant(Level& level, TenantId tenant) {
  for (auto& tq : level.tenants) {
    if (tq.tenant == tenant) return &tq;
  }
  return nullptr;
}

void WfqScheduler::reindex(int li) {
  const auto& tenants = levels_[li].tenants;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const auto& entities = tenants[t].entities;
    for (std::size_t i = 0; i < entities.size(); ++i) {
      slot_of_[entities[i]] = Slot{li, static_cast<std::uint32_t>(t), static_cast<std::uint32_t>(i)};
    }
  }
}

void WfqScheduler::add(TenantId tenant, std::uint64_t entity) {
  auto it = tenant_level_.find(tenant.value());
  const int level = it != tenant_level_.end() ? it->second : weight_to_level(base_weight_);
  if (it == tenant_level_.end()) tenant_level_[tenant.value()] = level;
  Level& L = levels_[level];
  TenantQueue* tq = find_tenant(L, tenant);
  if (tq == nullptr) {
    L.tenants.push_back(TenantQueue{tenant, {}, {}, 0, 0});
    tq = &L.tenants.back();
  }
  const std::size_t i = tq->entities.size();
  tq->entities.push_back(entity);
  if (i % 64 == 0) tq->pending.push_back(0);
  tq->pending[i / 64] |= std::uint64_t{1} << (i % 64);
  ++tq->pending_count;
  ++L.pending_count;
  if (entity >= slot_of_.size()) slot_of_.resize(entity + 1);
  slot_of_[entity] = Slot{level, static_cast<std::uint32_t>(tq - L.tenants.data()),
                          static_cast<std::uint32_t>(i)};
  ++entity_count_;
}

void WfqScheduler::remove(TenantId tenant, std::uint64_t entity) {
  auto it = tenant_level_.find(tenant.value());
  if (it == tenant_level_.end()) return;
  Level& L = levels_[it->second];
  TenantQueue* tq = find_tenant(L, tenant);
  if (tq == nullptr) return;
  auto pos = std::find(tq->entities.begin(), tq->entities.end(), entity);
  if (pos == tq->entities.end()) return;
  // Drop the entity's bit and shift the later bits down one position.
  const auto idx = static_cast<std::size_t>(pos - tq->entities.begin());
  const auto bit = [tq](std::size_t i) { return (tq->pending[i / 64] >> (i % 64)) & 1u; };
  if (bit(idx) != 0) {
    --tq->pending_count;
    --L.pending_count;
  }
  const std::size_t n = tq->entities.size();
  for (std::size_t i = idx; i + 1 < n; ++i) {
    const std::uint64_t mask = std::uint64_t{1} << (i % 64);
    tq->pending[i / 64] = (tq->pending[i / 64] & ~mask) | (bit(i + 1) != 0 ? mask : 0);
  }
  tq->pending[(n - 1) / 64] &= ~(std::uint64_t{1} << ((n - 1) % 64));
  tq->pending.resize((n - 1 + 63) / 64);
  tq->entities.erase(pos);
  tq->cursor = 0;
  slot_of_[entity] = Slot{};
  --entity_count_;
  if (tq->entities.empty()) {
    L.tenants.erase(L.tenants.begin() + (tq - L.tenants.data()));
    L.cursor = 0;
  }
  reindex(it->second);
}

void WfqScheduler::activate(std::uint64_t entity) {
  if (entity >= slot_of_.size()) return;
  const Slot s = slot_of_[entity];
  if (s.level < 0) return;
  Level& L = levels_[s.level];
  TenantQueue& tq = L.tenants[s.tenant];
  std::uint64_t& word = tq.pending[s.index / 64];
  const std::uint64_t mask = std::uint64_t{1} << (s.index % 64);
  if ((word & mask) != 0) return;
  word |= mask;
  ++tq.pending_count;
  ++L.pending_count;
}

int WfqScheduler::level_of(TenantId tenant) const {
  auto it = tenant_level_.find(tenant.value());
  return it == tenant_level_.end() ? 0 : it->second;
}

}  // namespace ufab::edge
