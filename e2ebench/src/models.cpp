#include "models.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "core/builders.h"
#include "core/inference_policy.h"
#include "core/trainer.h"
#include "nn/serialize.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace e2e {

using namespace meanet;

namespace {

core::ResNetConfig resnet_config(int num_classes) {
  core::ResNetConfig config;
  config.blocks_per_stage = 1;
  config.channels = {8, 16, 32};
  config.image_channels = 3;
  config.num_classes = num_classes;
  return config;
}

core::MobileNetConfig mobilenet_config(int num_classes) {
  core::MobileNetConfig config;
  config.stem_channels = 8;
  config.blocks = {{8, 1, 1}, {12, 2, 4}, {12, 1, 4}, {16, 2, 4}, {16, 1, 4}};
  config.image_channels = 3;
  config.num_classes = num_classes;
  return config;
}

constexpr int kMainEpochs = 10;
constexpr int kEdgeEpochs = 10;
constexpr int kCloudEpochs = 12;

std::string prefix(const std::string& dir, Family family) {
  return dir + "/" + (family == Family::kResNetCifar ? "resnet" : "mobilenet");
}

/// Training and validation splits of a family's prepared distribution.
struct Splits {
  data::Dataset train;
  data::Dataset validation;
};

Splits training_splits(Family family, std::uint64_t prep_seed, util::Rng& rng) {
  data::SyntheticDataset generated = data::make_synthetic(family_spec(family), prep_seed);
  util::Rng split_rng = rng.fork();
  data::SplitResult parts = data::split(generated.train, 0.9, split_rng);
  return Splits{std::move(parts.first), std::move(parts.second)};
}

core::TrainOptions options(int epochs, float learning_rate) {
  core::TrainOptions opts;
  opts.epochs = epochs;
  opts.batch_size = 32;
  opts.sgd.learning_rate = learning_rate;
  opts.milestones = {(epochs * 3) / 5, (epochs * 17) / 20};
  return opts;
}

void train_edge_family(const std::string& dir, Family family, std::uint64_t prep_seed) {
  util::Rng rng(prep_seed);
  Splits splits = training_splits(family, prep_seed, rng);
  util::Rng model_rng = rng.fork();
  core::MEANet net = build_edge(family, model_rng.engine()());
  core::DistributedTrainer trainer(net);
  util::Rng train_rng = rng.fork();
  trainer.train_main(splits.train, options(kMainEpochs, 0.1f), train_rng);
  const int num_hard = splits.train.num_classes / 2;
  const data::ClassDict dict = trainer.select_hard_classes_from_validation(splits.validation,
                                                                           num_hard);
  trainer.train_edge_blocks(splits.train, dict, options(kEdgeEpochs, 0.05f), train_rng);

  const std::string p = prefix(dir, family);
  nn::save_model(net.main_trunk(), p + ".trunk.bin");
  nn::save_model(net.main_exit(), p + ".exit.bin");
  nn::save_model(net.adaptive(), p + ".adaptive.bin");
  nn::save_model(net.extension(), p + ".extension.bin");
  std::ofstream out(p + ".dict");
  out << dict.num_hard();
  for (const int c : dict.hard_classes()) out << ' ' << c;
  out << '\n';
  if (!out) throw std::runtime_error("cannot write " + p + ".dict");
}

void train_cloud(const std::string& dir, std::uint64_t prep_seed) {
  util::Rng rng(prep_seed);
  Splits splits = training_splits(Family::kResNetCifar, prep_seed, rng);
  util::Rng cloud_rng(prep_seed ^ 0xc10dULL);
  nn::Sequential cloud = build_cloud(cloud_rng.engine()());
  util::Rng train_rng = cloud_rng.fork();
  core::train_classifier(cloud, splits.train, options(kCloudEpochs, 0.1f), train_rng);
  nn::save_model(cloud, cloud_weights_path(dir));
}

}  // namespace

data::SyntheticSpec family_spec(Family family) {
  if (family == Family::kResNetCifar) {
    data::SyntheticSpec spec = data::cifar_like_spec();
    spec.train_per_class = 80;
    spec.test_per_class = 25;
    spec.min_difficulty = 0.3f;
    spec.max_difficulty = 0.95f;
    spec.noise_stddev = 0.45f;
    return spec;
  }
  data::SyntheticSpec spec = data::imagenet_like_spec();
  spec.train_per_class = 100;
  spec.test_per_class = 30;
  spec.min_difficulty = 0.5f;
  spec.max_difficulty = 0.98f;
  spec.noise_stddev = 0.7f;
  return spec;
}

core::MEANet build_edge(Family family, std::uint64_t seed) {
  util::Rng rng(seed);
  const data::SyntheticSpec spec = family_spec(family);
  const int num_hard = spec.num_classes / 2;
  if (family == Family::kResNetCifar) {
    return core::build_resnet_meanet_b(resnet_config(spec.num_classes), num_hard,
                                       core::FusionMode::kSum, rng);
  }
  return core::build_mobilenet_meanet_b(mobilenet_config(spec.num_classes), num_hard,
                                        core::FusionMode::kSum, rng);
}

nn::Sequential build_cloud(std::uint64_t seed) {
  util::Rng rng(seed);
  const data::SyntheticSpec spec = family_spec(Family::kResNetCifar);
  return core::build_cloud_classifier(spec.channels, spec.num_classes, rng);
}

std::string cloud_weights_path(const std::string& dir) { return dir + "/cloud.bin"; }

void prepare_models(const std::string& dir, std::uint64_t prep_seed) {
  std::filesystem::create_directories(dir);
  std::exception_ptr errors[3];
  auto guarded = [&errors](int slot, auto fn) {
    return std::thread([&errors, slot, fn] {
      try {
        fn();
      } catch (...) {
        errors[slot] = std::current_exception();
      }
    });
  };
  std::thread threads[3] = {
      guarded(0, [&] { train_edge_family(dir, Family::kResNetCifar, prep_seed); }),
      guarded(1, [&] { train_edge_family(dir, Family::kMobileNetImage, prep_seed); }),
      guarded(2, [&] { train_cloud(dir, prep_seed); }),
  };
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  // Half-offload threshold: the median main-exit entropy over the pool.
  EdgeModel edge = load_edge(dir, Family::kResNetCifar);
  const data::Dataset pool = held_out_pool(Family::kResNetCifar, prep_seed, 25);
  const core::MainForward fwd = edge.net->forward_main(pool.images, nn::Mode::kEval);
  std::vector<float> entropy = ops::row_entropy(ops::softmax(fwd.logits));
  std::sort(entropy.begin(), entropy.end());
  const double threshold = entropy[entropy.size() / 2];
  std::ofstream meta(dir + "/meta.txt");
  meta.precision(17);
  meta << "wire_threshold " << threshold << '\n';
  if (!meta) throw std::runtime_error("cannot write " + dir + "/meta.txt");
}

EdgeModel load_edge(const std::string& dir, Family family) {
  EdgeModel model;
  model.net = std::make_unique<core::MEANet>(build_edge(family, 0));
  const std::string p = prefix(dir, family);
  nn::load_model(model.net->main_trunk(), p + ".trunk.bin");
  nn::load_model(model.net->main_exit(), p + ".exit.bin");
  nn::load_model(model.net->adaptive(), p + ".adaptive.bin");
  nn::load_model(model.net->extension(), p + ".extension.bin");
  model.net->freeze_main();
  std::ifstream in(p + ".dict");
  int num_hard = 0;
  in >> num_hard;
  std::vector<int> hard(static_cast<std::size_t>(std::max(num_hard, 0)));
  for (int& c : hard) in >> c;
  if (!in || num_hard <= 0) throw std::runtime_error("bad dictionary " + p + ".dict");
  model.dict = data::ClassDict(family_spec(family).num_classes, hard);
  return model;
}

nn::Sequential load_cloud(const std::string& dir) {
  nn::Sequential cloud = build_cloud(0);
  nn::load_model(cloud, cloud_weights_path(dir));
  return cloud;
}

double wire_threshold(const std::string& dir) {
  std::ifstream in(dir + "/meta.txt");
  std::string key;
  double value = 0.0;
  in >> key >> value;
  if (!in || key != "wire_threshold") throw std::runtime_error("bad " + dir + "/meta.txt");
  return value;
}

data::Dataset held_out_pool(Family family, std::uint64_t prep_seed, int per_class) {
  // The test split's generator is forked before either split is drawn, so
  // shrinking the training split to one instance per class leaves the
  // test split (the held-out pool) exactly as preparation saw it.
  data::SyntheticSpec spec = family_spec(family);
  spec.train_per_class = 1;
  spec.test_per_class = per_class;
  return data::make_synthetic(spec, prep_seed).test;
}

data::Dataset sample_inputs(const data::Dataset& pool, int count, std::uint64_t seed) {
  util::Rng rng(seed);
  const Shape one = pool.instance_shape();
  const std::int64_t stride = one.numel();
  data::Dataset out;
  out.num_classes = pool.num_classes;
  out.images = Tensor(Shape{count, one.channels(), one.height(), one.width()});
  out.labels.resize(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int pick = static_cast<int>(rng.engine()() % static_cast<std::uint64_t>(pool.size()));
    const float* src = pool.images.data() + pick * stride;
    float* dst = out.images.data() + i * stride;
    for (std::int64_t j = 0; j < stride; ++j) dst[j] = src[j] + rng.normal(0.0f, 0.02f);
    out.labels[static_cast<std::size_t>(i)] = pool.labels[static_cast<std::size_t>(pick)];
  }
  return out;
}

EdgeReplay replay_edge(core::MEANet& net, const data::ClassDict& dict, const Tensor& images,
                       double threshold, bool cloud_available) {
  const core::MainForward fwd = net.forward_main(images, nn::Mode::kEval);
  const Tensor probs = ops::softmax(fwd.logits);
  const std::vector<int> main_pred = ops::row_argmax(probs);
  const std::vector<float> main_conf = ops::row_max(probs);
  const std::vector<float> entropy = ops::row_entropy(probs);
  const int n = images.shape().batch();
  EdgeReplay out;
  out.prediction = main_pred;
  out.route.assign(static_cast<std::size_t>(n), static_cast<int>(core::Route::kMainExit));
  std::vector<int> ext_rows;
  for (int i = 0; i < n; ++i) {
    const std::size_t k = static_cast<std::size_t>(i);
    if (cloud_available && static_cast<double>(entropy[k]) > threshold) {
      out.route[k] = static_cast<int>(core::Route::kCloud);
    } else if (dict.is_hard(main_pred[k])) {
      out.route[k] = static_cast<int>(core::Route::kExtensionExit);
      ext_rows.push_back(i);
    }
  }
  if (!ext_rows.empty()) {
    const Tensor y2 = net.forward_extension(ops::gather_rows(images, ext_rows),
                                            ops::gather_rows(fwd.features, ext_rows),
                                            nn::Mode::kEval);
    const Tensor p2 = ops::softmax(y2);
    const std::vector<int> pred2 = ops::row_argmax(p2);
    const std::vector<float> conf2 = ops::row_max(p2);
    for (std::size_t j = 0; j < ext_rows.size(); ++j) {
      const std::size_t k = static_cast<std::size_t>(ext_rows[j]);
      if (conf2[j] > main_conf[k]) out.prediction[k] = dict.to_global(pred2[j]);
    }
  }
  return out;
}

}  // namespace e2e
