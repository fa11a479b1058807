from hypothesis import settings

# A larger example budget for the property tests that take theirs from
# the profile: python -m pytest --hypothesis-profile=thorough ...
settings.register_profile("thorough", max_examples=2000)
