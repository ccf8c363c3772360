#include "ddp/fleet_trainer.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "nn/optimizer.h"
#include "obs/instruments.h"
#include "tensor/conv.h"
#include "util/hash.h"
#include "util/rng.h"

namespace polarice::ddp {
namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

// Cursor fields travel inside float broadcasts; past 2^24 they would stop
// being exact, so the trainer refuses rather than silently drifting.
constexpr std::int64_t kMaxExactF32 = std::int64_t{1} << 24;

float exact_f32(std::int64_t v, const char* what) {
  if (v < 0 || v >= kMaxExactF32) {
    throw std::runtime_error(std::string("fleet cursor field ") + what +
                             " out of exact-float range");
  }
  return static_cast<float>(v);
}

std::size_t param_count(const std::vector<nn::Param>& params) {
  std::size_t n = 0;
  for (const auto& p : params) n += static_cast<std::size_t>(p.value->numel());
  return n;
}

void copy_values(const std::vector<nn::Param>& params, float* out) {
  for (const auto& p : params) {
    const std::size_t n = static_cast<std::size_t>(p.value->numel());
    std::memcpy(out, p.value->data(), n * sizeof(float));
    out += n;
  }
}

void copy_grads(const std::vector<nn::Param>& params, float* out) {
  for (const auto& p : params) {
    const std::size_t n = static_cast<std::size_t>(p.grad->numel());
    std::memcpy(out, p.grad->data(), n * sizeof(float));
    out += n;
  }
}

void load_values(std::vector<nn::Param>& params, const float* in) {
  for (auto& p : params) {
    const std::size_t n = static_cast<std::size_t>(p.value->numel());
    std::memcpy(p.value->data(), in, n * sizeof(float));
    in += n;
  }
}

/// grad = reduced * scale (set, not accumulate — the reduce already summed
/// every per-sample contribution).
void load_grads(std::vector<nn::Param>& params, const float* in, float scale) {
  for (auto& p : params) {
    float* g = p.grad->data();
    const std::int64_t n = p.grad->numel();
    for (std::int64_t i = 0; i < n; ++i) g[i] = in[i] * scale;
    in += n;
  }
}

void copy_tensors(const std::vector<tensor::Tensor>& tensors, float* out) {
  for (const auto& t : tensors) {
    std::memcpy(out, t.data(), static_cast<std::size_t>(t.numel()) *
                                   sizeof(float));
    out += t.numel();
  }
}

void load_tensors(std::vector<tensor::Tensor>& tensors, const float* in) {
  for (auto& t : tensors) {
    std::memcpy(t.data(), in,
                static_cast<std::size_t>(t.numel()) * sizeof(float));
    in += t.numel();
  }
}

/// The epoch's global sample order — a pure function of (seed, epoch), so
/// the whole data cursor is (epoch, step) and any rank can reconstruct the
/// order at any world size.
std::vector<std::size_t> epoch_order(std::size_t n, std::uint64_t seed,
                                     std::int64_t epoch) {
  util::Fnv128 h;
  h.update_le(seed);
  h.update_le(epoch);
  util::Rng rng(h.lo);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

struct Cursor {
  std::int64_t epoch = 0;
  std::int64_t step = 0;  // within the epoch
  std::int64_t global_step = 0;
  std::int64_t adam_t = 0;
};

/// One rank's whole fleet life: join → sync → step loop, with the rejoin
/// cycle around it. Owns the optimizer and (rank 0) the checkpoint store.
class RankRun {
 public:
  RankRun(nn::UNet& model, const nn::SegDataset& data,
          const FleetTrainConfig& config, int rank,
          const std::atomic<bool>* stop,
          std::function<void(std::int64_t)> step_hook)
      : model_(model),
        data_(data),
        config_(config),
        rank_(rank),
        stop_(stop),
        step_hook_(std::move(step_hook)),
        params_(model.params()),
        pcount_(param_count(params_)),
        adam_(params_, config.learning_rate) {
    if (rank_ == 0 && !config_.checkpoint_dir.empty()) {
      CheckpointStoreConfig store_config;
      store_config.dir = config_.checkpoint_dir;
      store_config.fingerprint = config_.fingerprint();
      store_ = std::make_unique<CheckpointStore>(store_config);
    }
    const std::size_t global_batch =
        static_cast<std::size_t>(config_.global_batch());
    if (data_.size() < global_batch) {
      throw std::invalid_argument(
          "train_fleet: dataset smaller than one global batch");
    }
    steps_per_epoch_ = static_cast<std::int64_t>(data_.size() / global_batch);
  }

  FleetTrainStats run(const CommunicatorFactory& factory) {
    const auto t0 = SteadyClock::now();
    auto& metrics = obs::TrainInstruments::get();
    int attempt = 0;
    auto backoff = config_.rejoin_backoff;
    for (;;) {
      try {
        const std::unique_ptr<Communicator> comm = factory();
        sync(*comm);
        // The latest join's rollback point: > 0 both for a relaunched
        // process whose first join found a durable checkpoint and for an
        // in-process rejoin cycle that rolled back mid-run.
        stats_.resumed_from =
            std::max(stats_.resumed_from, cursor_.global_step);
        metrics.world_live->set(comm->world_size());
        run_steps(*comm);
        metrics.world_live->set(0);
        break;
      } catch (const CollectiveError&) {
        metrics.world_live->set(0);
        metrics.collective_errors->add();
        if (attempt >= config_.max_rejoins) throw;
        ++attempt;
        ++stats_.rejoins;
        metrics.resumes->add();
        std::this_thread::sleep_for(backoff);
        backoff = std::min(backoff * 2, config_.rejoin_backoff_cap);
      }
    }
    stats_.global_step = cursor_.global_step;
    stats_.total_s = seconds_since(t0);
    return stats_;
  }

 private:
  /// Join-time synchronization: rank 0 rolls back to the last durable
  /// checkpoint (writing the initial one when none exists) and broadcasts
  /// cursor + parameters + Adam state; everyone else installs it. After
  /// sync, every rank is at the identical trajectory point.
  void sync(Communicator& comm) {
    std::vector<float> state(4 + 3 * pcount_);
    if (rank_ == 0) {
      if (store_) {
        const std::size_t corrupt_before = store_->stats().corrupt;
        if (auto loaded = store_->load_latest()) {
          if (loaded->params.size() != pcount_) {
            throw CheckpointCorrupt("parameter count mismatch");
          }
          cursor_ = {loaded->epoch, loaded->step, loaded->global_step,
                     loaded->adam_t};
          load_values(params_, loaded->params.data());
          load_tensors(adam_.moment1(), loaded->adam_m.data());
          load_tensors(adam_.moment2(), loaded->adam_v.data());
          adam_.set_step_count(loaded->adam_t);
        } else {
          // Guarantee a durable rollback point exists from step one.
          write_checkpoint();
        }
        obs::TrainInstruments::get().checkpoint_corrupt->add(
            store_->stats().corrupt - corrupt_before);
        stats_.checkpoint_corrupt =
            static_cast<std::int64_t>(store_->stats().corrupt);
        stats_.checkpoint_stale =
            static_cast<std::int64_t>(store_->stats().stale);
      }
      state[0] = exact_f32(cursor_.epoch, "epoch");
      state[1] = exact_f32(cursor_.step, "step");
      state[2] = exact_f32(cursor_.global_step, "global_step");
      state[3] = exact_f32(cursor_.adam_t, "adam_t");
      copy_values(params_, state.data() + 4);
      copy_tensors(adam_.moment1(), state.data() + 4 + pcount_);
      copy_tensors(adam_.moment2(), state.data() + 4 + 2 * pcount_);
    }
    comm.broadcast(state.data(), state.size(), /*root=*/0);
    if (rank_ != 0) {
      cursor_.epoch = static_cast<std::int64_t>(state[0]);
      cursor_.step = static_cast<std::int64_t>(state[1]);
      cursor_.global_step = static_cast<std::int64_t>(state[2]);
      cursor_.adam_t = static_cast<std::int64_t>(state[3]);
      load_values(params_, state.data() + 4);
      load_tensors(adam_.moment1(), state.data() + 4 + pcount_);
      load_tensors(adam_.moment2(), state.data() + 4 + 2 * pcount_);
      adam_.set_step_count(cursor_.adam_t);
    }
  }

  void run_steps(Communicator& comm) {
    auto& metrics = obs::TrainInstruments::get();
    const int batch_local = config_.batch_per_device;
    const int batch_global = config_.global_batch();
    const float inv_batch = 1.0f / static_cast<float>(batch_global);
    tensor::Tensor x({1, data_.channels(), data_.height(), data_.width()});
    tensor::Tensor logits, probs, dlogits;
    sample_buffers_.resize(static_cast<std::size_t>(batch_local));

    while (cursor_.epoch < config_.epochs) {
      if (step_hook_) step_hook_(cursor_.global_step);
      const auto step_t0 = SteadyClock::now();
      if (order_epoch_ != cursor_.epoch) {
        order_ = epoch_order(data_.size(), config_.seed, cursor_.epoch);
        order_epoch_ = cursor_.epoch;
      }

      // Per-sample gradients for this rank's contiguous slots of the
      // global batch, each buffer [grads, loss, stop vote]. One combined
      // collective per step sums them along the canonical tree over the
      // whole global batch, so the summed gradient is bit-identical at
      // every world size. A stop vote (SIGTERM) reaches every rank through
      // the same reduce that moves gradients, so the fleet always agrees
      // on whether the pending step happened.
      const bool vote_stop = stop_ != nullptr && stop_->load();
      const std::size_t base =
          static_cast<std::size_t>(cursor_.step) * batch_global +
          static_cast<std::size_t>(rank_) * batch_local;
      for (int j = 0; j < batch_local; ++j) {
        const nn::SegSample& sample = data_[order_[base + j]];
        std::memcpy(x.data(), sample.image.data(),
                    static_cast<std::size_t>(sample.image.numel()) *
                        sizeof(float));
        adam_.zero_grad();
        model_.forward(x, logits, /*training=*/true);
        const float loss =
            tensor::softmax_cross_entropy(logits, sample.labels, probs,
                                          dlogits);
        model_.backward(dlogits);
        auto& buffer = sample_buffers_[j];
        buffer.resize(pcount_ + 2);
        copy_grads(params_, buffer.data());
        buffer[pcount_] = loss;
        buffer[pcount_ + 1] = vote_stop ? 1.0f : 0.0f;
      }
      const auto reduce_t0 = SteadyClock::now();
      comm.tree_allreduce_sum(sample_buffers_);
      metrics.allreduce_time->observe(seconds_since(reduce_t0));
      const std::vector<float>& reduced = sample_buffers_[0];
      metrics.bytes_reduced->add(reduced.size() * sizeof(float));

      if (reduced[pcount_ + 1] > 0.0f) {
        // Stop agreed: the pending step is NOT applied; rank 0 makes the
        // current trajectory point durable and everyone exits cleanly.
        stats_.stopped = true;
        if (store_) write_checkpoint();
        return;
      }

      stats_.final_loss = reduced[pcount_] * inv_batch;
      load_grads(params_, reduced.data(), inv_batch);
      adam_.step();
      cursor_.adam_t = adam_.step_count();
      ++cursor_.step;
      ++cursor_.global_step;
      ++stats_.steps;
      metrics.steps->add();
      if (cursor_.step == steps_per_epoch_) {
        cursor_.step = 0;
        ++cursor_.epoch;
      }
      if (store_ && cursor_.global_step % config_.checkpoint_every == 0) {
        write_checkpoint();
      }
      metrics.step_time->observe(seconds_since(step_t0));
    }
    // Completed: make the final state durable too.
    if (store_) write_checkpoint();
  }

  void write_checkpoint() {
    TrainCheckpoint checkpoint;
    checkpoint.epoch = cursor_.epoch;
    checkpoint.step = cursor_.step;
    checkpoint.global_step = cursor_.global_step;
    checkpoint.adam_t = cursor_.adam_t;
    checkpoint.params.resize(pcount_);
    checkpoint.adam_m.resize(pcount_);
    checkpoint.adam_v.resize(pcount_);
    copy_values(params_, checkpoint.params.data());
    copy_tensors(adam_.moment1(), checkpoint.adam_m.data());
    copy_tensors(adam_.moment2(), checkpoint.adam_v.data());
    const auto t0 = SteadyClock::now();
    store_->write(checkpoint);
    auto& metrics = obs::TrainInstruments::get();
    metrics.checkpoint_write->observe(seconds_since(t0));
    metrics.checkpoints->add();
    ++stats_.checkpoints_written;
  }

  nn::UNet& model_;
  const nn::SegDataset& data_;
  const FleetTrainConfig& config_;
  int rank_;
  const std::atomic<bool>* stop_;
  std::function<void(std::int64_t)> step_hook_;
  std::vector<nn::Param> params_;
  std::size_t pcount_;
  nn::Adam adam_;
  std::unique_ptr<CheckpointStore> store_;
  std::int64_t steps_per_epoch_ = 0;

  Cursor cursor_;
  FleetTrainStats stats_;
  std::vector<std::size_t> order_;
  std::int64_t order_epoch_ = -1;
  std::vector<std::vector<float>> sample_buffers_;
};

}  // namespace

void FleetTrainConfig::validate() const {
  model.validate();
  if (model.use_dropout) {
    throw std::invalid_argument(
        "FleetTrainConfig: dropout must be disabled — per-replica mask "
        "streams break world-size-invariant determinism");
  }
  if (world_size < 1) {
    throw std::invalid_argument("FleetTrainConfig: world_size must be >= 1");
  }
  if (batch_per_device < 1) {
    throw std::invalid_argument(
        "FleetTrainConfig: batch_per_device must be >= 1");
  }
  if (epochs < 1) {
    throw std::invalid_argument("FleetTrainConfig: epochs must be >= 1");
  }
  if (!(learning_rate > 0.0f)) {
    throw std::invalid_argument(
        "FleetTrainConfig: learning_rate must be > 0");
  }
  if (checkpoint_every < 1) {
    throw std::invalid_argument(
        "FleetTrainConfig: checkpoint_every must be >= 1");
  }
  if (max_rejoins < 0) {
    throw std::invalid_argument("FleetTrainConfig: max_rejoins must be >= 0");
  }
}

std::uint64_t FleetTrainConfig::fingerprint() const noexcept {
  util::Fnv128 h;
  h.update_le(std::uint64_t{0x544545'4c46ULL});  // "FLEET" tag
  h.update_le(model.in_channels);
  h.update_le(model.num_classes);
  h.update_le(model.depth);
  h.update_le(model.base_channels);
  h.update_le(model.seed);
  h.update_le(seed);
  h.update_le(global_batch());
  h.update_le(std::bit_cast<std::uint32_t>(learning_rate));
  return h.lo;
}

FleetTrainStats train_fleet_rank(nn::UNet& model, const nn::SegDataset& data,
                                 const FleetTrainConfig& config, int rank,
                                 const CommunicatorFactory& factory,
                                 const std::atomic<bool>* stop,
                                 std::function<void(std::int64_t)> step_hook) {
  config.validate();
  if (rank < 0 || rank >= config.world_size) {
    throw std::invalid_argument("train_fleet_rank: bad rank");
  }
  RankRun run(model, data, config, rank, stop, std::move(step_hook));
  return run.run(factory);
}

FleetTrainStats train_fleet(nn::UNet& model, const nn::SegDataset& data,
                            const FleetTrainConfig& config) {
  config.validate();
  FleetTrainConfig local = config;
  // A shared World cannot re-rendezvous after a failed step (mailboxes
  // would hold the dead step's frames), so the thread path fails fast.
  local.max_rejoins = 0;
  const auto world =
      std::make_shared<World>(local.world_size, local.collective.clock);

  FleetTrainStats rank0_stats;
  std::exception_ptr error;
  std::mutex error_mutex;
  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(local.world_size));
    for (int r = 0; r < local.world_size; ++r) {
      threads.emplace_back([&, r] {
        try {
          std::optional<nn::UNet> replica;
          if (r != 0) replica.emplace(local.model);
          nn::UNet& rank_model = (r == 0) ? model : *replica;
          const auto factory = [&world, &local,
                                r]() -> std::unique_ptr<Communicator> {
            return std::make_unique<ThreadCommunicator>(world, r,
                                                        local.collective);
          };
          const FleetTrainStats stats =
              train_fleet_rank(rank_model, data, local, r, factory);
          if (r == 0) rank0_stats = stats;
        } catch (...) {
          const std::scoped_lock lock(error_mutex);
          if (!error) error = std::current_exception();
        }
      });
    }
  }
  if (error) std::rethrow_exception(error);
  return rank0_stats;
}

std::vector<net::Endpoint> fleet_endpoints(const std::string& dir,
                                           int world_size) {
  std::vector<net::Endpoint> endpoints;
  endpoints.reserve(static_cast<std::size_t>(world_size));
  for (int r = 0; r < world_size; ++r) {
    endpoints.push_back(net::Endpoint::parse("unix:" + dir + "/rank-" +
                                             std::to_string(r) + ".sock"));
  }
  return endpoints;
}

nn::SegDataset make_synthetic_dataset(int samples, int channels, int height,
                                      int width, int classes,
                                      std::uint64_t seed) {
  if (samples < 1 || channels < 1 || height < 1 || width < 1 || classes < 1) {
    throw std::invalid_argument("make_synthetic_dataset: bad geometry");
  }
  util::Rng rng(seed);
  nn::SegDataset data;
  for (int s = 0; s < samples; ++s) {
    nn::SegSample sample;
    sample.image = tensor::Tensor({channels, height, width});
    float* pixels = sample.image.data();
    const std::int64_t numel = sample.image.numel();
    for (std::int64_t i = 0; i < numel; ++i) pixels[i] = rng.uniform_f();
    sample.labels.resize(static_cast<std::size_t>(height) * width);
    for (int& label : sample.labels) {
      label = static_cast<int>(rng.uniform_int(0, classes - 1));
    }
    data.add(std::move(sample));
  }
  return data;
}

}  // namespace polarice::ddp
