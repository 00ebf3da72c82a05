/**
 * @file
 * Inference latency and goodput with an interleaved training stream.
 *
 * The paper's edge workload serves inference and trains on the same
 * fabric (Sec. II.C); the runtime analogue is the TrainingService
 * riding the serving worker pool as a lowest-priority stream. This
 * bench runs the same closed-loop inference population twice — alone,
 * then beside a trainer that runs a fixed number of steps, publishing a
 * weight version after each — and reports the inference p50/p99 and
 * goodput for both, plus the training-side counters (steps,
 * publications, replica swaps).
 *
 * The training run is sized by work, not by time: the inference load
 * keeps running until the trainer has finished its steps, and every
 * client sends one more request after that, so each publication is
 * followed by inference dispatches and steps, publications and swaps
 * are all nonzero however fast the solves are. The inference-only run
 * then serves as many requests as the training run completed, so both
 * goodputs are taken over the same amount of inference work.
 *
 * The CI gate: inference goodput with active training must stay at or
 * above 80% of the inference-only baseline. Training only occupies a
 * worker when no inference request is waiting (LaterStreamFirst ties
 * break against the no-deadline train stream), so the residual cost is
 * one training-solve residency per worker at worst.
 *
 * Results land in BENCH_training.json. `--quick` shrinks the run (fewer
 * clients, requests and train steps) for CI smoke use.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/table.h"
#include "ode/step_control.h"
#include "runtime/inference_server.h"
#include "runtime/training_service.h"

using namespace enode;

namespace {

constexpr std::uint64_t kSeed = 20230815;
constexpr std::size_t kDim = 16;

std::unique_ptr<NodeModel>
makeServedModel()
{
    Rng rng(kSeed);
    return NodeModel::makeMlp(/*num_layers=*/2, kDim, /*hidden=*/64,
                              /*f_depth=*/2, rng);
}

ServerOptions
baseOptions(std::size_t workers)
{
    ServerOptions opts;
    opts.numWorkers = workers;
    opts.queueCapacity = 4096;
    opts.ivp.tolerance = 1e-4;
    opts.ivp.initialDt = 0.05;
    return opts;
}

TrainExample
makeExample(std::uint64_t index)
{
    Rng rng(kSeed + 5000 + (index % 32));
    TrainExample ex;
    ex.input = Tensor::randn(Shape{kDim}, rng, 0.5f);
    ex.target = ex.input * 0.5f;
    return ex;
}

struct LoadResult
{
    double goodputRps = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    MetricsSummary metrics;
    std::uint64_t trainSteps = 0;
    std::uint64_t published = 0;
    std::uint64_t swaps = 0;
};

/**
 * Closed-loop inference population (submit, wait, repeat) against
 * `workers` replicas. With `train_steps` > 0 a trainer thread runs that
 * many synchronous TrainingService steps through the same pool,
 * publishing after each, and the clients keep going until it is done.
 */
LoadResult
runLoad(std::size_t workers, std::size_t clients, std::size_t total,
        std::uint64_t train_steps)
{
    InferenceServer server(makeServedModel, baseOptions(workers));
    std::unique_ptr<TrainingService> trainer;
    std::atomic<bool> trainingDone{train_steps == 0};
    std::thread trainThread;
    if (train_steps > 0) {
        TrainingOptions topts;
        topts.learningRate = 0.01;
        topts.batchSize = 4;
        topts.publishEvery = 1;
        topts.ivp.tolerance = 1e-3;
        topts.ivp.initialDt = 0.1;
        trainer = std::make_unique<TrainingService>(
            server, makeServedModel(), topts);
        trainThread = std::thread([&, batchSize = topts.batchSize] {
            std::vector<TrainExample> batch(batchSize);
            std::uint64_t index = 0;
            for (std::uint64_t s = 0; s < train_steps; s++) {
                for (auto &example : batch)
                    example = makeExample(index++);
                trainer->step(batch);
            }
            trainingDone.store(true, std::memory_order_release);
        });
    }

    std::vector<Tensor> inputs;
    {
        Rng rng(kSeed + 7);
        for (std::size_t i = 0; i < 64; i++)
            inputs.push_back(Tensor::randn(Shape{kDim}, rng, 0.5f));
    }

    const auto start = RuntimeClock::now();
    std::vector<std::thread> threads;
    const std::size_t per_client = (total + clients - 1) / clients;
    for (std::size_t c = 0; c < clients; c++) {
        threads.emplace_back([&, c] {
            for (std::size_t j = 0;; j++) {
                // Decided before the submit, so a client's last request
                // is dispatched after the trainer's last publication.
                const bool last =
                    j + 1 >= per_client &&
                    trainingDone.load(std::memory_order_acquire);
                auto sub = server.submit(
                    inputs[(c * per_client + j) % inputs.size()],
                    /*stream=*/1 + static_cast<std::uint32_t>(c % 4));
                if (sub.accepted)
                    sub.result.get();
                if (last)
                    break;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    const double seconds =
        std::chrono::duration<double>(RuntimeClock::now() - start).count();

    LoadResult result;
    if (trainer) {
        trainThread.join();
        result.trainSteps = trainer->steps();
    }
    result.published = server.registry().published();
    result.swaps = server.registry().swapsApplied();
    server.stop();
    result.metrics = server.metrics().summary();
    result.goodputRps =
        static_cast<double>(result.metrics.completed) / seconds;
    result.p50Ms = result.metrics.totalP50Ms;
    result.p99Ms = result.metrics.totalP99Ms;
    return result;
}

void
writeReport(const LoadResult &baseline, const LoadResult &trained,
            const std::string &path = "BENCH_training.json")
{
    const double ratio = baseline.goodputRps > 0.0
                             ? trained.goodputRps / baseline.goodputRps
                             : 0.0;
    std::ofstream out(path, std::ios::trunc);
    out << std::fixed << "{\n  \"inference_only\": {"
        << std::setprecision(2)
        << "\"goodput_rps\": " << baseline.goodputRps
        << std::setprecision(3) << ", \"p50_ms\": " << baseline.p50Ms
        << ", \"p99_ms\": " << baseline.p99Ms << "},\n"
        << "  \"with_training\": {" << std::setprecision(2)
        << "\"goodput_rps\": " << trained.goodputRps
        << std::setprecision(3) << ", \"p50_ms\": " << trained.p50Ms
        << ", \"p99_ms\": " << trained.p99Ms
        << ", \"train_steps\": " << trained.trainSteps
        << ", \"published_versions\": " << trained.published
        << ", \"replica_swaps\": " << trained.swaps << "},\n"
        << "  \"goodput_ratio\": " << std::setprecision(3) << ratio
        << "\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Warn);

    bool quick = false;
    for (int i = 1; i < argc; i++)
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;

    const std::size_t workers = 4;
    const std::size_t clients = quick ? 8 : 16;
    const std::size_t total = quick ? 192 : 768;
    const std::uint64_t trainSteps = quick ? 3 : 12;

    std::printf("bench_training: %zu workers, %zu clients, %zu requests, "
                "%llu train steps%s\n\n",
                workers, clients, total,
                static_cast<unsigned long long>(trainSteps),
                quick ? " (quick)" : "");

    const LoadResult trained = runLoad(workers, clients, total, trainSteps);
    const auto served = static_cast<std::size_t>(trained.metrics.completed);
    const LoadResult baseline = runLoad(
        workers, clients, std::max(total, served), /*train_steps=*/0);

    Table table("Inference under an interleaved training stream");
    table.setHeader({"mode", "goodput req/s", "p50 ms", "p99 ms",
                     "train steps", "published", "swaps"});
    table.addRow({"inference only", Table::num(baseline.goodputRps, 1),
                  Table::num(baseline.p50Ms), Table::num(baseline.p99Ms),
                  "-", "-", "-"});
    table.addRow({"with training", Table::num(trained.goodputRps, 1),
                  Table::num(trained.p50Ms), Table::num(trained.p99Ms),
                  std::to_string(trained.trainSteps),
                  std::to_string(trained.published),
                  std::to_string(trained.swaps)});
    table.print();

    const double ratio = baseline.goodputRps > 0.0
                             ? trained.goodputRps / baseline.goodputRps
                             : 0.0;
    std::printf("\ngoodput with training / inference-only: %.2fx %s\n",
                ratio, ratio >= 0.8 ? "(PASS >=0.8)" : "(below 0.8!)");
    writeReport(baseline, trained);
    std::printf("wrote BENCH_training.json\n");
    return 0;
}
