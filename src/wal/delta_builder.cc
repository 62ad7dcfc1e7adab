#include "wal/delta_builder.h"

#include <algorithm>

#include "common/check.h"
#include "expdata/bsi_builder.h"
#include "expdata/segmenter.h"
#include "obs/metrics.h"

namespace expbsi {

DeltaBuilder::DeltaBuilder(int num_segments, int num_buckets,
                           bool bucket_equals_segment)
    : num_segments_(num_segments),
      num_buckets_(num_buckets),
      bucket_equals_segment_(bucket_equals_segment) {
  CHECK_GT(num_segments, 0);
  deltas_.resize(static_cast<size_t>(num_segments));
}

void DeltaBuilder::Add(const WalEvent& event) {
  const int seg = SegmentOf(event.analysis_unit_id, num_segments_);
  SegmentDelta& delta = deltas_[static_cast<size_t>(seg)];
  switch (event.kind) {
    case WalEventKind::kExpose: {
      auto [it, inserted] = delta.expose[event.id].try_emplace(
          event.analysis_unit_id, event.date, event.randomization_unit_id);
      if (!inserted && event.date < it->second.first) {
        // Earliest first-expose date wins; the randomization unit rides
        // along with it (it is a property of the unit, not the date).
        it->second = {event.date, event.randomization_unit_id};
      }
      break;
    }
    case WalEventKind::kMetric: {
      delta.metrics[{event.id, event.date}][event.analysis_unit_id] +=
          event.value;
      break;
    }
    case WalEventKind::kDimension: {
      delta.dimensions[{static_cast<uint32_t>(event.id), event.date}]
                      [event.analysis_unit_id] = event.value;
      break;
    }
  }
  ++num_events_;
}

void DeltaBuilder::AddRecord(const WalRecord& record) {
  for (const WalEvent& event : record.events) Add(event);
}

void DeltaBuilder::MergeExpose(
    SegmentBsiData* segment, uint64_t strategy_id,
    const std::map<UnitId, std::pair<Date, UnitId>>& units) {
  auto it = segment->expose.find(strategy_id);
  if (it == segment->expose.end()) {
    // First sight of this strategy in this segment: the batch builder
    // already does exactly what we need.
    std::vector<ExposeRow> rows;
    rows.reserve(units.size());
    for (const auto& [unit, date_and_rand] : units) {
      ExposeRow row;
      row.strategy_id = strategy_id;
      row.analysis_unit_id = unit;
      row.randomization_unit_id = date_and_rand.second;
      row.first_expose_date = date_and_rand.first;
      rows.push_back(row);
    }
    segment->expose.emplace(
        strategy_id,
        BuildExposeBsi(rows, segment->encoder,
                       bucket_equals_segment_ ? 0 : num_buckets_));
    return;
  }

  ExposeBsi& live = it->second;
  Date delta_min = units.begin()->second.first;
  for (const auto& [unit, date_and_rand] : units) {
    delta_min = std::min(delta_min, date_and_rand.first);
  }
  if (delta_min < live.min_expose_date) {
    // A late event carries an earlier first-expose date than anything in
    // the live BSI: rebase every stored offset so the new minimum maps to
    // offset 1 and existing units keep their absolute dates.
    live.offset =
        Bsi::AddScalar(live.offset, live.min_expose_date - delta_min);
    live.min_expose_date = delta_min;
  }

  std::vector<std::pair<uint32_t, uint64_t>> offset_pairs;
  std::vector<std::pair<uint32_t, uint64_t>> bucket_pairs;
  for (const auto& [unit, date_and_rand] : units) {
    const uint32_t pos = segment->encoder.Encode(unit);
    const uint64_t offset = date_and_rand.first - live.min_expose_date + 1;
    if (!live.offset.Exists(pos)) {
      offset_pairs.emplace_back(pos, offset);
      if (!bucket_equals_segment_) {
        bucket_pairs.emplace_back(
            pos,
            static_cast<uint64_t>(
                BucketOf(date_and_rand.second, num_buckets_)) +
                1);
      }
    } else if (offset < live.offset.Get(pos)) {
      // The unit was already exposed but this delta saw an earlier date.
      live.offset.SetValue(pos, offset);
    }
  }
  live.offset.MergeAppend(Bsi::FromPairs(std::move(offset_pairs)));
  if (!bucket_equals_segment_) {
    live.bucket.MergeAppend(Bsi::FromPairs(std::move(bucket_pairs)));
  }
}

void DeltaBuilder::MergeInto(ExperimentBsiData* data,
                             BsiStoreKeySet* touched) {
  CHECK_EQ(data->num_segments, num_segments_);
  CHECK_EQ(static_cast<int>(data->segments.size()), num_segments_);
  static obs::Counter& merges = obs::GetCounter("wal.delta_merges");
  static obs::Counter& merged_events =
      obs::GetCounter("wal.delta_merged_events");
  merges.Add();
  merged_events.Add(num_events_);
  for (int seg = 0; seg < num_segments_; ++seg) {
    SegmentDelta& delta = deltas_[static_cast<size_t>(seg)];
    if (delta.empty()) continue;
    SegmentBsiData& live = data->segments[static_cast<size_t>(seg)];
    const uint32_t positions_before = live.encoder.size();
    const uint16_t segment = static_cast<uint16_t>(seg);
    if (touched != nullptr) {
      for (const auto& [strategy_id, units] : delta.expose) {
        touched->insert(BsiStoreKey{segment, BsiKind::kExpose, strategy_id, 0});
      }
      for (const auto& [key, units] : delta.metrics) {
        touched->insert(
            BsiStoreKey{segment, BsiKind::kMetric, key.first, key.second});
      }
      for (const auto& [key, units] : delta.dimensions) {
        touched->insert(
            BsiStoreKey{segment, BsiKind::kDimension, key.first, key.second});
      }
    }

    for (const auto& [strategy_id, units] : delta.expose) {
      MergeExpose(&live, strategy_id, units);
    }

    for (const auto& [key, units] : delta.metrics) {
      std::vector<std::pair<uint32_t, uint64_t>> pairs;
      pairs.reserve(units.size());
      for (const auto& [unit, sum] : units) {
        pairs.emplace_back(live.encoder.Encode(unit), sum);
      }
      Bsi value = Bsi::FromPairs(std::move(pairs));
      auto it = live.metrics.find(key);
      if (it == live.metrics.end()) {
        MetricBsi bsi;
        bsi.metric_id = key.first;
        bsi.date = key.second;
        bsi.value = std::move(value);
        live.metrics.emplace(key, std::move(bsi));
      } else {
        it->second.value.MergeAppend(value);
      }
    }

    for (const auto& [key, units] : delta.dimensions) {
      auto it = live.dimensions.find(key);
      if (it == live.dimensions.end()) {
        std::vector<std::pair<uint32_t, uint64_t>> pairs;
        pairs.reserve(units.size());
        for (const auto& [unit, value] : units) {
          pairs.emplace_back(live.encoder.Encode(unit), value);
        }
        DimensionBsi bsi;
        bsi.dimension_id = key.first;
        bsi.date = key.second;
        bsi.value = Bsi::FromPairs(std::move(pairs));
        live.dimensions.emplace(key, std::move(bsi));
      } else {
        Bsi& value = it->second.value;
        std::vector<std::pair<uint32_t, uint64_t>> fresh;
        for (const auto& [unit, v] : units) {
          const uint32_t pos = live.encoder.Encode(unit);
          if (value.Exists(pos)) {
            value.SetValue(pos, v);  // last write wins
          } else if (v != 0) {
            fresh.emplace_back(pos, v);
          }
        }
        value.MergeAppend(Bsi::FromPairs(std::move(fresh)));
      }
    }

    if (touched != nullptr && live.encoder.size() != positions_before) {
      touched->insert(
          BsiStoreKey{segment, BsiKind::kState, kIngestEncoderBlobId, 0});
    }
    delta = SegmentDelta{};
  }
  num_events_ = 0;
}

}  // namespace expbsi
