import hypothesis

hypothesis.settings.register_profile(
    "default", max_examples=120, deadline=None
)
hypothesis.settings.load_profile("default")
