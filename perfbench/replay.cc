// Per-layer replay on the bench thread: the workload's own inputs go
// through the public core, ode and nn entry points, each call timed from
// here. Nothing inside the library is instrumented.

#include <chrono>
#include <cstdio>
#include <set>

#include "bench.h"
#include "harness.h"
#include "nn/activation.h"
#include "nn/concat_time.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/norm.h"
#include "tensor/workspace.h"

using namespace enode;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** A state one f evaluation saw during a solve. */
struct FState
{
    std::size_t layer = 0;
    double t = 0.0;
    Tensor h;
};

/**
 * The OdeFunction NodeModel would use (EmbeddedNet::eval), with the
 * evaluation timed; optionally keeps every stride-th state it sees.
 */
class TimedNetOde : public OdeFunction
{
  public:
    TimedNetOde(EmbeddedNet &net, std::size_t layer,
                std::vector<FState> *capture = nullptr,
                std::size_t stride = 1, std::size_t cap = 0)
        : net_(net), layer_(layer), capture_(capture), stride_(stride),
          cap_(cap)
    {
    }

    Tensor
    eval(double t, const Tensor &h) override
    {
        countEval();
        const auto t0 = Clock::now();
        Tensor d = net_.eval(t, h);
        fNs_ += nsBetween(t0, Clock::now());
        if (capture_ != nullptr && evalCount() % stride_ == 0 &&
            capture_->size() < cap_)
            capture_->push_back({layer_, t, h});
        return d;
    }

    double fNs() const { return fNs_; }

  private:
    EmbeddedNet &net_;
    std::size_t layer_;
    std::vector<FState> *capture_;
    std::size_t stride_;
    std::size_t cap_;
    double fNs_ = 0.0;
};

enum Kind
{
    kConcat,
    kLinear,
    kTanh,
    kConv,
    kNorm,
    kRelu,
    kOther,
    kKinds
};

const char *const kKindMetric[kKinds] = {
    "nn.concat_time_us", "nn.linear_us", "nn.tanh_us",  "nn.conv2d_us",
    "nn.group_norm_us",  "nn.relu_us",   "nn.other_us",
};

Kind
kindOf(Layer &l)
{
    if (dynamic_cast<ConcatTime *>(&l))
        return kConcat;
    if (dynamic_cast<Linear *>(&l))
        return kLinear;
    if (dynamic_cast<Tanh *>(&l))
        return kTanh;
    if (dynamic_cast<Conv2d *>(&l))
        return kConv;
    if (dynamic_cast<GroupNorm *>(&l))
        return kNorm;
    if (dynamic_cast<ReLU *>(&l))
        return kRelu;
    return kOther;
}

/**
 * Multiply-add FLOPs of one forward call, from the layer's shapes
 * (2 per multiply-accumulate; bias adds and activations not counted).
 */
double
flopsOf(Layer &l, const Tensor &out)
{
    if (auto *lin = dynamic_cast<Linear *>(&l))
        return 2.0 * static_cast<double>(lin->inFeatures()) *
               static_cast<double>(lin->outFeatures());
    if (auto *conv = dynamic_cast<Conv2d *>(&l)) {
        const Shape &s = out.shape();
        const double k = static_cast<double>(conv->kernel());
        return 2.0 * static_cast<double>(conv->inChannels()) *
               static_cast<double>(conv->outChannels()) * k * k *
               static_cast<double>(s.dim(1)) * static_cast<double>(s.dim(2));
    }
    return 0.0;
}

bool
overBudget(Clock::time_point start, double seconds, std::size_t done,
           std::size_t minDone)
{
    return done >= minDone && nsBetween(start, Clock::now()) > seconds * 1e9;
}

double
p50(std::vector<double> v)
{
    return distributionOf(std::move(v)).p50;
}

std::string
format(const char *fmt, double a, double b = 0.0, double c = 0.0)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, fmt, a, b, c);
    return buf;
}

} // namespace

ReplayResult
replayLayers(const Workload &w, const std::vector<Request> &requests,
             double budgetSec)
{
    ReplayResult rr;
    auto model = makeModel(w);
    const ButcherTableau &tableau = ButcherTableau::rk23();
    const IvpOptions opts = servingIvp();
    FixedFactorController ctrl;

    // The workload's distinct inputs, in the order it sends them.
    const std::size_t maxInputs = w.conv ? 48 : 1024;
    std::vector<const Tensor *> inputs;
    std::set<std::uint64_t> seen;
    for (const Request &q : requests) {
        if (seen.insert(q.inputId).second)
            inputs.push_back(&q.input);
        if (inputs.size() == maxInputs)
            break;
    }
    const std::size_t minInputs = std::min<std::size_t>(8, inputs.size());
    const double phase = budgetSec / 3.0;

    // Untimed pass: sizes every workspace, and keeps every 7th f state
    // a solve visits for the nn replay.
    IvpWorkspace ivpWs;
    std::vector<FState> states;
    constexpr std::size_t kStates = 1024;
    for (std::size_t i = 0; i < inputs.size() && states.size() < kStates;
         i++) {
        Tensor h = *inputs[i];
        for (std::size_t l = 0; l < model->numLayers(); l++) {
            TimedNetOde ode(model->net(l), l, &states, 7, kStates);
            h = solveIvp(ode, h, 0.0, model->layerTime(), tableau, ctrl,
                         opts, nullptr, &ivpWs)
                    .yFinal;
        }
    }
    model->forward(*inputs[0], tableau, ctrl, opts);

    // core and ode, input by input: a solo NodeModel::forward, then the
    // same request as its per-layer solveIvp calls with f timed. Back to
    // back, so drift in machine speed hits both sides of the closure.
    Workspace &ws = Workspace::local();
    std::uint64_t forwardMisses = 0;
    std::vector<double> forwardMs, odeMs;
    IvpStats odeStats;
    double solveNs = 0.0, fNs = 0.0;
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < inputs.size(); i++) {
        const std::uint64_t misses = ws.stats().misses;
        auto a = Clock::now();
        model->forward(*inputs[i], tableau, ctrl, opts);
        forwardMs.push_back(nsBetween(a, Clock::now()) / 1e6);
        forwardMisses += ws.stats().misses - misses;

        Tensor h = *inputs[i];
        double reqNs = 0.0;
        for (std::size_t l = 0; l < model->numLayers(); l++) {
            TimedNetOde ode(model->net(l), l);
            a = Clock::now();
            IvpResult res = solveIvp(ode, h, 0.0, model->layerTime(),
                                     tableau, ctrl, opts, nullptr, &ivpWs);
            reqNs += nsBetween(a, Clock::now());
            fNs += ode.fNs();
            odeStats.accumulate(res.stats);
            h = std::move(res.yFinal);
        }
        solveNs += reqNs;
        odeMs.push_back(reqNs / 1e6);
        if (overBudget(t0, phase, i + 1, minInputs))
            break;
    }
    const double reqs = static_cast<double>(odeMs.size());

    // core: forwardBatched at batch 8, per sample.
    constexpr std::size_t kBatch = 8;
    std::vector<FixedFactorController> batchCtrl(kBatch);
    std::vector<StepController *> ctrls;
    for (auto &c : batchCtrl)
        ctrls.push_back(&c);
    std::vector<double> batchedMs;
    std::vector<Tensor> xs(kBatch);
    t0 = Clock::now();
    for (std::size_t g = 0;; g++) {
        for (std::size_t j = 0; j < kBatch; j++)
            xs[j] = *inputs[(g * kBatch + j) % inputs.size()];
        const auto a = Clock::now();
        model->forwardBatched(xs, tableau, ctrls, opts);
        if (g > 0) // the first batch sizes the batched workspace
            batchedMs.push_back(nsBetween(a, Clock::now()) / 1e6 / kBatch);
        if (overBudget(t0, phase, batchedMs.size(), 4))
            break;
    }

    // nn: the captured f states through EmbeddedNet::eval, then layer by
    // layer through each Layer::forward.
    double evalNs = 0.0, evals = 0.0;
    double kindNs[kKinds] = {};
    std::size_t kindLayers[kKinds] = {};
    for (std::size_t l = 0; l < model->numLayers(); l++)
        for (std::size_t i = 0; i < model->net(l).body().size(); i++)
            kindLayers[kindOf(model->net(l).body().layer(i))]++;
    double linearFlops = 0.0, convFlops = 0.0;
    t0 = Clock::now();
    for (std::size_t pass = 0; pass == 0 || !overBudget(t0, phase, 1, 1);
         pass++) {
        for (const FState &s : states) {
            EmbeddedNet &net = model->net(s.layer);
            auto a = Clock::now();
            Tensor d = net.eval(s.t, s.h);
            evalNs += nsBetween(a, Clock::now());
            evals += 1.0;

            // The same statement Sequential::forward runs per layer, so
            // each layer is charged for releasing its input buffer too.
            Sequential &body = net.body();
            static_cast<ConcatTime &>(body.layer(0)).setTime(s.t);
            Tensor cur = s.h;
            for (std::size_t i = 0; i < body.size(); i++) {
                Layer &layer = body.layer(i);
                a = Clock::now();
                cur = layer.forward(cur);
                kindNs[kindOf(layer)] += nsBetween(a, Clock::now());
                (kindOf(layer) == kConv ? convFlops : linearFlops) +=
                    flopsOf(layer, cur);
            }
        }
    }

    double layersNs = 0.0;
    for (int k = 0; k < kKinds; k++)
        layersNs += kindNs[k];
    const Ratio closure{layersNs, evalNs, "ns in layer forwards",
                        "ns in EmbeddedNet::eval"};
    rr.layerClosure = closure.value();
    rr.forwardMsP50 = p50(forwardMs);
    rr.odeMsPerReqP50 = p50(odeMs);
    const double batchedP50 = p50(batchedMs);
    const Ratio batchGain{rr.forwardMsP50, batchedP50,
                          "ms solo forward p50",
                          "ms per sample at batch 8 p50"};
    const Ratio accept{static_cast<double>(odeStats.evalPoints),
                       static_cast<double>(odeStats.trials),
                       "accepted trials", "trials"};
    const Ratio fShare{fNs, solveNs, "ns in f", "ns in solveIvp"};

    const auto walks = static_cast<std::size_t>(evals);
    const std::size_t solves = odeMs.size();
    auto add = [&rr](std::string name, double value, const char *unit,
                     std::size_t samples, bool present = true) {
        rr.rows.push_back({std::move(name), {value, unit}, samples,
                           present ? "bench-thread replay"
                                   : "absent: no such layer in this model"});
    };
    add("nn.f_eval_us", evalNs / evals / 1e3, "us", walks);
    for (int k = 0; k < kOther; k++)
        add(kKindMetric[k], kindNs[k] / evals / 1e3, "us", walks,
            kindLayers[k] > 0);
    add("nn.linear_gflops",
        kindNs[kLinear] > 0.0 ? linearFlops / kindNs[kLinear] : 0.0,
        "GFLOP/s", walks, kindLayers[kLinear] > 0);
    add("nn.conv2d_gflops",
        kindNs[kConv] > 0.0 ? convFlops / kindNs[kConv] : 0.0, "GFLOP/s",
        walks, kindLayers[kConv] > 0);
    add("nn.layer_closure", closure.value(), "ratio", walks);
    add("tensor.heap_allocs_per_req",
        static_cast<double>(forwardMisses) /
            static_cast<double>(forwardMs.size()),
        "count", forwardMs.size());
    add("ode.fevals_per_req", static_cast<double>(odeStats.fEvals) / reqs,
        "count", solves);
    add("ode.trials_per_req", static_cast<double>(odeStats.trials) / reqs,
        "count", solves);
    add("ode.accept_ratio", accept.value(), "ratio", solves);
    add("ode.f_share", fShare.value(), "ratio", solves);
    add("ode.self_us_per_trial",
        (solveNs - fNs) / static_cast<double>(odeStats.trials) / 1e3, "us",
        solves);
    add("core.forward_ms.p50", rr.forwardMsP50, "ms", forwardMs.size());
    add("core.forward_batched_ms_per_sample.p50", batchedP50, "ms",
        batchedMs.size());
    add("core.batch_gain", batchGain.value(), "ratio", batchedMs.size());

    rr.notes.push_back("nn.layer_closure " + closure.describe());
    rr.notes.push_back("core.batch_gain " + batchGain.describe());
    rr.notes.push_back("ode.accept_ratio " + accept.describe());
    rr.notes.push_back("ode.f_share " + fShare.describe());
    rr.notes.push_back(
        "GFLOP/s are computed from tensor shapes: 2*in*out per Linear "
        "call, 2*Cin*Cout*k*k*H*W per Conv2d call; bias adds excluded");
    rr.notes.push_back(format("nn.other_us (layers of no listed kind) = "
                              "%.4f us per f-eval",
                              kindNs[kOther] / evals / 1e3));
    return rr;
}

} // namespace perfbench
