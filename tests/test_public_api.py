"""API stability: every declared export exists and error taxonomy holds."""

import importlib
import inspect

import pytest

import repro
import repro.errors as errors
from repro.core.evaluation import EvaluationManager
from repro.core.receiver import ConditionalMessagingReceiver
from repro.core.service import ConditionalMessagingService
from repro.harness.runner import MultiprocessDeployment
from repro.mq.manager import QueueManager
from repro.mq.persistence import MemoryJournal, journal_factory_for, journal_for
from repro.mq.pubsub import TopicBroker
from repro.mq.sqlstore import SqlQueueStore
from repro.net.wire import WireHost
from repro.workloads.scenarios import Testbed

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.mq",
    "repro.objects",
    "repro.core",
    "repro.dsphere",
    "repro.baseline",
    "repro.workloads",
    "repro.harness",
    "repro.obs",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    assert exported, f"{package_name} declares no __all__"
    for name in exported:
        assert hasattr(package, name), f"{package_name}.{name} missing"


def test_version():
    assert repro.__version__ == "1.0.0"


def test_every_library_error_is_a_repro_error():
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            assert issubclass(obj, errors.ReproError), name


def test_error_taxonomy_groups():
    assert issubclass(errors.QueueNotFoundError, errors.MQError)
    assert issubclass(errors.EmptyQueueError, errors.MQError)
    assert issubclass(errors.SelectorError, errors.MQError)
    assert issubclass(errors.TransactionRolledBackError, errors.TransactionError)
    assert issubclass(errors.ConditionValidationError, errors.ConditionError)
    assert issubclass(
        errors.UnknownConditionalMessageError, errors.ConditionalMessagingError
    )
    assert issubclass(errors.NoDSphereError, errors.DSphereError)


def test_errors_carry_context():
    assert errors.QueueNotFoundError("Q").queue_name == "Q"
    assert errors.QueueFullError("Q", 10).max_depth == 10
    assert errors.MessageTooLargeError(100, 50).limit == 50
    assert errors.UnknownConditionalMessageError("CM-1").cmid == "CM-1"


def test_module_docstrings_present():
    """Every public module documents itself (deliverable: doc comments)."""
    import os

    import repro as root

    src_root = os.path.dirname(root.__file__)
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            rel = os.path.relpath(os.path.join(dirpath, filename), src_root)
            module_name = "repro." + rel[:-3].replace(os.sep, ".")
            module_name = module_name.replace(".__init__", "")
            module = importlib.import_module(module_name)
            assert module.__doc__, f"{module_name} lacks a module docstring"


#: Every parameter of every public constructor.  A new option shows up
#: here, in the diff that adds it.
OPTION_CENSUS = {
    QueueManager: "name clock journal backout_threshold tracer metrics",
    ConditionalMessagingService: "manager scheduler notify_success"
    " evaluation_grace_ms ack_queue slog_queue comp_queue outcome_queue"
    " push_evaluation",
    EvaluationManager: "manager ack_queue on_decided scheduler push",
    ConditionalMessagingReceiver: "manager recipient_id rlog_queue",
    TopicBroker: "manager retain_last match_cache_size metrics",
    WireHost: "manager window window_provider spool_max_depth initial_rto_ms"
    " reconnect_min_ms reconnect_max_ms auto_create_queues",
    Testbed: "receiver_names latency_ms jitter_ms loss_rate seed journaled"
    " journal_sync journal_factory notify_success tracer metrics",
    MultiprocessDeployment: "receivers messages transport socket_dir capacity"
    " pickup_ms timeout_s",
    journal_for: "url_or_path sync compaction_threshold",
    journal_factory_for: "backend directory sync compaction_threshold",
}


@pytest.mark.parametrize("constructor", OPTION_CENSUS, ids=lambda c: c.__name__)
def test_option_census(constructor):
    parameters = inspect.signature(constructor).parameters
    assert " ".join(parameters) == OPTION_CENSUS[constructor]
    # ``**kwargs`` would accept options this table cannot see
    assert not [
        p for p in parameters.values() if p.kind in (p.VAR_KEYWORD, p.VAR_POSITIONAL)
    ]


@pytest.mark.parametrize(
    "constructor, keyword",
    [
        (ConditionalMessagingService, "group_commit"),
        (ConditionalMessagingService, "pump_coalesce_ms"),
        (EvaluationManager, "pump_coalesce_ms"),
        (Testbed, "pump_coalesce_ms"),
        (Testbed, "adaptive_flush"),
        (MultiprocessDeployment, "processing_ms"),
    ],
)
def test_retired_keywords_are_type_errors(constructor, keyword):
    with pytest.raises(TypeError, match=keyword):
        inspect.signature(constructor).bind_partial(**{keyword: None})


def test_retired_journal_attributes_are_gone():
    retired = (
        "enable_adaptive_flush", "disable_adaptive_flush", "adaptive_flush_enabled",
        "drain", "adaptive_groups_coalesced",
    )  # fmt: skip
    for store in (MemoryJournal(), SqlQueueStore):
        assert [name for name in retired if hasattr(store, name)] == []
