"""The paper's contribution: naive and probabilistic top-k selection protocols."""

from .._lazy import lazy_exports

_EXPORTS = {
    "driver": (
        "ANONYMOUS_NAIVE",
        "BACKENDS",
        "DriverError",
        "KERNEL",
        "KernelUnsupported",
        "NAIVE",
        "PROBABILISTIC",
        "PROTOCOLS",
        "RunConfig",
        "SESSION",
        "run_many_on_vectors",
        "run_protocol_on_vectors",
        "run_topk_queries",
        "run_topk_query",
    ),
    "kernel": ("KernelRun", "kernel_refusal"),
    "max_protocol": ("ProbabilisticMaxAlgorithm",),
    "naive": ("NaiveTopKAlgorithm",),
    "noise": ("HighBiasedNoise", "LowBiasedNoise", "NoiseStrategy", "UniformNoise"),
    "params": ("ParamError", "ProtocolParams", "minimum_rounds"),
    "results": ("ProtocolResult",),
    "sampling": ("SamplingError", "random_value_in"),
    "schedule": (
        "ConstantCutoffSchedule",
        "ExponentialSchedule",
        "LinearSchedule",
        "PAPER_DEFAULT_SCHEDULE",
        "Schedule",
        "ScheduleError",
    ),
    "serialization": (
        "SerializationError",
        "load_result",
        "result_from_dict",
        "result_to_dict",
        "save_result",
    ),
    "session": ("PreparedQuery", "ProtocolSession", "prepare_query_vectors"),
    "topk_protocol": ("ProbabilisticTopKAlgorithm",),
    "vectors": (
        "VectorError",
        "is_sorted_desc",
        "merge_topk",
        "multiset_difference",
        "multiset_intersection_size",
        "pad_to_k",
        "validate_vector",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
