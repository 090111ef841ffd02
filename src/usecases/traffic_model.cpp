#include "usecases/traffic_model.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "support/rng.hpp"

namespace everest::usecases::traffic {

using support::Error;
using support::Expected;

OdMatrix make_odm(const RoadNetwork &net, double daily_trips_per_zone,
                  std::uint64_t seed) {
  support::Pcg32 rng(seed);
  int side = net.grid_n + 1;
  OdMatrix odm;
  odm.zones = side * side;

  // Gravity model: attraction weights per zone, demand ~ w_i * w_j / (1+d).
  std::vector<double> weight(static_cast<std::size_t>(odm.zones));
  for (auto &w : weight) w = rng.lognormal(0.0, 0.6);

  odm.trips.assign(static_cast<std::size_t>(odm.zones) *
                       static_cast<std::size_t>(odm.zones),
                   0.0);
  double total = 0.0;
  for (int i = 0; i < odm.zones; ++i) {
    for (int j = 0; j < odm.zones; ++j) {
      if (i == j) continue;
      double dx = std::abs(i / side - j / side);
      double dy = std::abs(i % side - j % side);
      double demand = weight[static_cast<std::size_t>(i)] *
                      weight[static_cast<std::size_t>(j)] /
                      (1.0 + 0.3 * (dx + dy));
      odm.trips[static_cast<std::size_t>(i * odm.zones + j)] = demand;
      total += demand;
    }
  }
  double scale = daily_trips_per_zone * odm.zones / std::max(total, 1e-9);
  for (auto &t : odm.trips) t *= scale;

  // Two-peak commuter profile.
  odm.diurnal.assign(kIntervals, 0.0);
  double sum = 0.0;
  for (int q = 0; q < kIntervals; ++q) {
    double hour = q / 4.0;
    double base = 0.15 + std::exp(-std::pow(hour - 8.0, 2) / 2.2) +
                  0.9 * std::exp(-std::pow(hour - 17.5, 2) / 2.8);
    if (hour < 5.0) base *= 0.15;
    odm.diurnal[static_cast<std::size_t>(q)] = base;
    sum += base;
  }
  for (auto &d : odm.diurnal) d /= sum;
  return odm;
}

double bpr_speed(double free_flow_kmh, double flow, double capacity,
                 double alpha, double beta) {
  double ratio = capacity > 0 ? flow / capacity : 0.0;
  return free_flow_kmh / (1.0 + alpha * std::pow(ratio, beta));
}

double PredictionCoefficients::predict(int interval) const {
  double w = 2.0 * M_PI / kIntervals;
  double q = static_cast<double>(interval);
  return c[0] + c[1] * std::sin(w * q) + c[2] * std::cos(w * q) +
         c[3] * std::sin(2.0 * w * q) + c[4] * std::cos(2.0 * w * q);
}

PredictionCoefficients fit_prediction(const std::vector<double> &speed_96) {
  PredictionCoefficients fit;
  if (speed_96.size() != kIntervals) return fit;
  double w = 2.0 * M_PI / kIntervals;
  double n = static_cast<double>(kIntervals);
  // Fourier basis is orthogonal over the full period: closed-form fit.
  for (int q = 0; q < kIntervals; ++q) {
    double x = speed_96[static_cast<std::size_t>(q)];
    fit.c[0] += x / n;
    fit.c[1] += 2.0 / n * x * std::sin(w * q);
    fit.c[2] += 2.0 / n * x * std::cos(w * q);
    fit.c[3] += 2.0 / n * x * std::sin(2.0 * w * q);
    fit.c[4] += 2.0 / n * x * std::cos(2.0 * w * q);
  }
  return fit;
}

namespace {

/// Segment lookup by directed endpoints for Manhattan routing.
class EndpointIndex {
public:
  explicit EndpointIndex(const RoadNetwork &net) {
    for (const auto &s : net.segments)
      by_coords_[{s.x1, s.y1, s.x2, s.y2}] = s.id;
  }

  int find(double x1, double y1, double x2, double y2) const {
    auto it = by_coords_.find({x1, y1, x2, y2});
    if (it != by_coords_.end()) return it->second;
    it = by_coords_.find({x2, y2, x1, y1});
    return it != by_coords_.end() ? it->second : -1;
  }

private:
  std::map<std::tuple<double, double, double, double>, int> by_coords_;
};

}  // namespace

Expected<TrafficModel> build_model(const RoadNetwork &net, const OdMatrix &odm,
                                   std::uint64_t seed) {
  int side = net.grid_n + 1;
  if (odm.zones != side * side)
    return Error::make("traffic model: ODM zone count mismatch");
  support::Pcg32 rng(seed);

  TrafficModel model;
  model.segments.assign(net.segments.size(), SegmentState{});
  for (auto &s : model.segments) {
    s.flow.assign(kIntervals, 0.0);
    s.speed_kmh.assign(kIntervals, 0.0);
    s.intensity.assign(kIntervals, 0.0);
  }

  EndpointIndex index(net);

  // Route every OD pair along its Manhattan path (x first, then y) and add
  // its per-interval demand to every traversed segment.
  for (int from = 0; from < odm.zones; ++from) {
    int fx = from / side, fy = from % side;
    for (int to = 0; to < odm.zones; ++to) {
      if (from == to) continue;
      double daily =
          odm.trips[static_cast<std::size_t>(from * odm.zones + to)];
      if (daily <= 1e-9) continue;
      int tx = to / side, ty = to % side;

      std::vector<int> path;
      int x = fx, y = fy;
      while (x != tx) {
        int nx = x + (tx > x ? 1 : -1);
        int seg = index.find(x * net.cell_km, y * net.cell_km,
                             nx * net.cell_km, y * net.cell_km);
        if (seg >= 0) path.push_back(seg);
        x = nx;
      }
      while (y != ty) {
        int ny = y + (ty > y ? 1 : -1);
        int seg = index.find(x * net.cell_km, y * net.cell_km,
                             x * net.cell_km, ny * net.cell_km);
        if (seg >= 0) path.push_back(seg);
        y = ny;
      }
      for (int q = 0; q < kIntervals; ++q) {
        double d = daily * odm.diurnal[static_cast<std::size_t>(q)];
        for (int seg : path)
          model.segments[static_cast<std::size_t>(seg)]
              .flow[static_cast<std::size_t>(q)] += d;
      }
    }
  }

  // Congested speed via BPR; capacity scales with the speed limit; FCD-like
  // measurement noise on top.
  for (std::size_t s = 0; s < net.segments.size(); ++s) {
    const Segment &seg = net.segments[s];
    double capacity = 12.0 * seg.speed_limit_kmh;  // veh per 15 min
    for (int q = 0; q < kIntervals; ++q) {
      auto &state = model.segments[s];
      double speed = bpr_speed(seg.speed_limit_kmh,
                               state.flow[static_cast<std::size_t>(q)],
                               capacity);
      speed = std::max(3.0, speed + rng.normal(0.0, 0.5));
      state.speed_kmh[static_cast<std::size_t>(q)] = speed;
      state.intensity[static_cast<std::size_t>(q)] =
          state.flow[static_cast<std::size_t>(q)] / speed;
    }
  }

  model.coeffs.resize(net.segments.size());
  for (std::size_t s = 0; s < net.segments.size(); ++s)
    model.coeffs[s] = fit_prediction(model.segments[s].speed_kmh);
  model.days_integrated = 1;
  return model;
}

support::Status update_model(TrafficModel &model, const TrafficModel &new_day,
                             double alpha) {
  if (model.segments.size() != new_day.segments.size())
    return support::Status::failure("traffic model: segment count mismatch");
  if (alpha <= 0.0 || alpha > 1.0)
    return support::Status::failure("traffic model: alpha must be in (0, 1]");
  for (std::size_t s = 0; s < model.segments.size(); ++s) {
    auto &dst = model.segments[s];
    const auto &src = new_day.segments[s];
    for (int q = 0; q < kIntervals; ++q) {
      auto i = static_cast<std::size_t>(q);
      dst.flow[i] = (1 - alpha) * dst.flow[i] + alpha * src.flow[i];
      dst.speed_kmh[i] =
          (1 - alpha) * dst.speed_kmh[i] + alpha * src.speed_kmh[i];
      dst.intensity[i] = dst.flow[i] / std::max(dst.speed_kmh[i], 1e-9);
    }
    model.coeffs[s] = fit_prediction(dst.speed_kmh);
  }
  ++model.days_integrated;
  return support::Status::ok();
}

}  // namespace everest::usecases::traffic
